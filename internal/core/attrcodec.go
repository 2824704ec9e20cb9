package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/astypes"
)

// Alternative MOAS-list encoding: a dedicated optional transitive path
// attribute instead of community values. The paper standardizes on the
// community attribute (§4.2) because it deploys with configuration
// only; the drafts it cites also discuss a dedicated attribute, which
// needs no reserved community value and survives community-stripping
// policies. Both encodings are supported end to end; the attribute form
// rides the codec's unknown-attribute transit path, so unmodified
// speakers forward it untouched.

// ListAttrCode is the path-attribute type code used for the dedicated
// encoding (from the private/experimental range).
const ListAttrCode uint8 = 254

// AttrBytes encodes the list as the attribute value: one big-endian
// 2-octet AS number per entitled origin, ascending.
func (l List) AttrBytes() []byte {
	if l.Empty() {
		return nil
	}
	out := make([]byte, 0, 2*l.Len())
	for i := 0; i < l.Len(); i++ {
		out = binary.BigEndian.AppendUint16(out, uint16(l.at(i)))
	}
	return out
}

// ListFromAttrBytes decodes an attribute value produced by AttrBytes.
func ListFromAttrBytes(b []byte) (List, error) {
	if len(b) == 0 {
		return List{}, fmt.Errorf("empty MOAS-list attribute")
	}
	if len(b)%2 != 0 {
		return List{}, fmt.Errorf("MOAS-list attribute length %d not a multiple of 2", len(b))
	}
	var buf [8]astypes.ASN // a short list is decoded on the stack
	asns := buf[:0]
	for i := 0; i < len(b); i += 2 {
		asns = append(asns, astypes.ASN(binary.BigEndian.Uint16(b[i:i+2])))
	}
	return NewList(asns...), nil
}

// CarriedList returns the MOAS list a route carries, with the one
// precedence every detector applies: the dedicated attribute's value
// listAttr (ListAttrCode), then the communities. ok is false when the
// route carries neither (or only an undecodable attribute), i.e. the
// implicit single-origin list applies.
func CarriedList(comms []astypes.Community, listAttr []byte) (List, bool) {
	if listAttr != nil {
		if l, err := ListFromAttrBytes(listAttr); err == nil {
			return l, true
		}
	}
	return FromCommunities(comms)
}

// carried is the MOAS list a route carries, read in place from the
// attribute value or the communities that hold it, so the check can
// compare it with a recorded list without building one.
type carried struct {
	attr  []byte              // a decodable ListAttrCode value, or nil
	comms []astypes.Community // the route's communities, when attr is nil
}

// carriedBy is CarriedList without building the list.
func carriedBy(comms []astypes.Community, listAttr []byte) (c carried, ok bool) {
	if len(listAttr) > 0 && len(listAttr)%2 == 0 {
		return carried{attr: listAttr}, true
	}
	for _, cm := range comms {
		if cm.Value() == MLVal {
			return carried{comms: comms}, true
		}
	}
	return carried{}, false
}

// all reports whether pred holds for every member as carried,
// duplicates included.
func (c carried) all(pred func(astypes.ASN) bool) bool {
	if c.attr != nil {
		for i := 0; i < len(c.attr); i += 2 {
			if !pred(astypes.ASN(binary.BigEndian.Uint16(c.attr[i:]))) {
				return false
			}
		}
		return true
	}
	for _, cm := range c.comms {
		if cm.Value() == MLVal && !pred(cm.ASN()) {
			return false
		}
	}
	return true
}

func (c carried) contains(asn astypes.ASN) bool {
	return !c.all(func(a astypes.ASN) bool { return a != asn })
}

// equal reports whether the carried list, as a set, is l.
func (c carried) equal(l List) bool {
	for i := 0; i < l.Len(); i++ {
		if !c.contains(l.at(i)) {
			return false
		}
	}
	return c.all(l.Contains)
}
