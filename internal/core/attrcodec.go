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
	if len(l.asns) == 0 {
		return nil
	}
	out := make([]byte, 0, 2*len(l.asns))
	for _, a := range l.asns {
		out = binary.BigEndian.AppendUint16(out, uint16(a))
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
	asns := make([]astypes.ASN, 0, len(b)/2)
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
