// Package wire implements a BGP-4 binary message codec in the style of
// RFC 4271 (with RFC 1997 communities), sufficient to run live speaker
// meshes over TCP and to serialize routing feeds for the offline MOAS
// monitor. AS numbers are 2 octets, matching the era of the paper.
//
// The codec is strict on decode: malformed input returns a
// *MessageError carrying the NOTIFICATION error code/subcode a conformant
// speaker would send.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/astypes"
)

// Message size limits and header layout (RFC 4271 §4.1).
const (
	HeaderLen     = 19
	MaxMessageLen = 4096
	markerLen     = 16
)

// MsgType identifies a BGP message type.
type MsgType uint8

// BGP message types.
const (
	MsgOpen         MsgType = 1
	MsgUpdate       MsgType = 2
	MsgNotification MsgType = 3
	MsgKeepalive    MsgType = 4
	// MsgRouteRefresh is the RFC 2918 ROUTE-REFRESH message.
	MsgRouteRefresh MsgType = 5
)

func (t MsgType) String() string {
	switch t {
	case MsgOpen:
		return "OPEN"
	case MsgUpdate:
		return "UPDATE"
	case MsgNotification:
		return "NOTIFICATION"
	case MsgKeepalive:
		return "KEEPALIVE"
	case MsgRouteRefresh:
		return "ROUTE-REFRESH"
	default:
		return fmt.Sprintf("TYPE(%d)", uint8(t))
	}
}

// NOTIFICATION error codes (RFC 4271 §4.5).
const (
	ErrCodeHeader    uint8 = 1
	ErrCodeOpen      uint8 = 2
	ErrCodeUpdate    uint8 = 3
	ErrCodeHoldTimer uint8 = 4
	ErrCodeFSM       uint8 = 5
	ErrCodeCease     uint8 = 6
)

// Header error subcodes.
const (
	SubConnNotSynced uint8 = 1
	SubBadLength     uint8 = 2
	SubBadType       uint8 = 3
)

// UPDATE error subcodes (subset used by this implementation).
const (
	SubMalformedAttrList uint8 = 1
	SubUnrecognizedAttr  uint8 = 2
	SubMissingMandatory  uint8 = 3
	SubAttrFlagsError    uint8 = 4
	SubAttrLengthError   uint8 = 5
	SubInvalidOrigin     uint8 = 6
	SubInvalidNextHop    uint8 = 8
	SubMalformedASPath   uint8 = 11
	SubMalformedNLRI     uint8 = 10
)

// OPEN error subcodes.
const (
	SubUnsupportedVersion uint8 = 1
	SubBadPeerAS          uint8 = 2
	SubBadBGPID           uint8 = 3
	SubUnacceptableHold   uint8 = 6
)

// MessageError is a decode failure annotated with the NOTIFICATION
// code/subcode a speaker should emit in response.
type MessageError struct {
	Code    uint8
	Subcode uint8
	Reason  string
}

func (e *MessageError) Error() string {
	return fmt.Sprintf("bgp message error (code %d subcode %d): %s", e.Code, e.Subcode, e.Reason)
}

func msgErrf(code, sub uint8, format string, args ...any) error {
	return &MessageError{Code: code, Subcode: sub, Reason: fmt.Sprintf(format, args...)}
}

// Message is any decodable BGP message body.
type Message interface {
	// Type returns the message type code.
	Type() MsgType
	// encodeBody appends the body (everything after the 19-byte header).
	encodeBody(dst []byte) ([]byte, error)
}

// Open is the BGP OPEN message. Optional parameters are not modelled.
type Open struct {
	Version  uint8
	AS       astypes.ASN
	HoldTime uint16
	BGPID    uint32
}

// Version4 is the only supported BGP version.
const Version4 uint8 = 4

// Type implements Message.
func (*Open) Type() MsgType { return MsgOpen }

func (o *Open) encodeBody(dst []byte) ([]byte, error) {
	dst = append(dst, o.Version)
	dst = binary.BigEndian.AppendUint16(dst, as2of(o.AS))
	dst = binary.BigEndian.AppendUint16(dst, o.HoldTime)
	dst = binary.BigEndian.AppendUint32(dst, o.BGPID)
	dst = append(dst, 0) // optional parameters length
	return dst, nil
}

// as2of narrows a 4-octet ASN into a 2-octet wire field, substituting
// AS_TRANS (RFC 6793) for values that do not fit — the classic encoding
// used by this speaker carries only 2-octet AS fields.
func as2of(a astypes.ASN) uint16 {
	if a > astypes.Max2Octet {
		return uint16(astypes.ASTrans)
	}
	return uint16(a)
}

func decodeOpen(body []byte) (*Open, error) {
	if len(body) < 10 {
		return nil, msgErrf(ErrCodeHeader, SubBadLength, "OPEN body %d bytes, need >= 10", len(body))
	}
	o := &Open{
		Version:  body[0],
		AS:       astypes.ASN(binary.BigEndian.Uint16(body[1:3])),
		HoldTime: binary.BigEndian.Uint16(body[3:5]),
		BGPID:    binary.BigEndian.Uint32(body[5:9]),
	}
	if o.Version != Version4 {
		return nil, msgErrf(ErrCodeOpen, SubUnsupportedVersion, "version %d", o.Version)
	}
	optLen := int(body[9])
	if len(body) != 10+optLen {
		return nil, msgErrf(ErrCodeHeader, SubBadLength, "OPEN optional params length mismatch")
	}
	if o.HoldTime == 1 || o.HoldTime == 2 {
		return nil, msgErrf(ErrCodeOpen, SubUnacceptableHold, "hold time %d", o.HoldTime)
	}
	return o, nil
}

// RouteRefresh is the RFC 2918 ROUTE-REFRESH message: a request that
// the peer re-advertise its Adj-RIB-Out for the given AFI/SAFI (always
// IPv4 unicast here).
type RouteRefresh struct {
	AFI  uint16
	SAFI uint8
}

// IPv4 unicast address family identifiers.
const (
	AFIIPv4     uint16 = 1
	SAFIUnicast uint8  = 1
)

// Type implements Message.
func (*RouteRefresh) Type() MsgType { return MsgRouteRefresh }

func (r *RouteRefresh) encodeBody(dst []byte) ([]byte, error) {
	dst = binary.BigEndian.AppendUint16(dst, r.AFI)
	dst = append(dst, 0 /* reserved */, r.SAFI)
	return dst, nil
}

func decodeRouteRefresh(body []byte) (*RouteRefresh, error) {
	if len(body) != 4 {
		return nil, msgErrf(ErrCodeHeader, SubBadLength, "ROUTE-REFRESH body %d bytes", len(body))
	}
	return &RouteRefresh{
		AFI:  binary.BigEndian.Uint16(body[:2]),
		SAFI: body[3],
	}, nil
}

// Keepalive is the (body-less) KEEPALIVE message.
type Keepalive struct{}

// Type implements Message.
func (*Keepalive) Type() MsgType { return MsgKeepalive }

func (*Keepalive) encodeBody(dst []byte) ([]byte, error) { return dst, nil }

// Notification is the BGP NOTIFICATION message.
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Type implements Message.
func (*Notification) Type() MsgType { return MsgNotification }

func (n *Notification) encodeBody(dst []byte) ([]byte, error) {
	dst = append(dst, n.Code, n.Subcode)
	return append(dst, n.Data...), nil
}

func decodeNotification(body []byte) (*Notification, error) {
	if len(body) < 2 {
		return nil, msgErrf(ErrCodeHeader, SubBadLength, "NOTIFICATION body %d bytes", len(body))
	}
	n := &Notification{Code: body[0], Subcode: body[1]}
	if len(body) > 2 {
		n.Data = append([]byte(nil), body[2:]...)
	}
	return n, nil
}

// OriginCode is the value of the ORIGIN path attribute.
type OriginCode uint8

// ORIGIN attribute values.
const (
	OriginIGP        OriginCode = 0
	OriginEGP        OriginCode = 1
	OriginIncomplete OriginCode = 2
)

// Update is the BGP UPDATE message. Attrs carries the decoded path
// attributes relevant to this system; unrecognized optional transitive
// attributes are preserved opaquely in Unknown so they transit unchanged.
type Update struct {
	Withdrawn []astypes.Prefix
	Attrs     PathAttrs
	NLRI      []astypes.Prefix
}

// PathAttrs is the decoded attribute set of an UPDATE.
type PathAttrs struct {
	HasOrigin    bool
	Origin       OriginCode
	ASPath       astypes.ASPath
	HasNextHop   bool
	NextHop      uint32
	HasLocalPref bool
	LocalPref    uint32
	// AtomicAggregate marks a route summarized with loss of path detail
	// (RFC 4271 §5.1.6); Aggregator identifies the summarizing speaker.
	AtomicAggregate bool
	HasAggregator   bool
	AggregatorAS    astypes.ASN
	AggregatorID    uint32
	Communities     []astypes.Community
	// Unknown holds unrecognized optional transitive attributes verbatim
	// (flags, type, value) so they are re-encoded on propagation.
	Unknown []UnknownAttr
}

// UnknownAttr preserves an attribute this codec does not interpret.
type UnknownAttr struct {
	Flags uint8
	Code  uint8
	Value []byte
}

// NewOptionalTransitive builds an optional transitive attribute this
// codec carries opaquely (e.g. the dedicated MOAS-list attribute).
func NewOptionalTransitive(code uint8, value []byte) UnknownAttr {
	return UnknownAttr{
		Flags: flagOptional | flagTransitive,
		Code:  code,
		Value: append([]byte(nil), value...),
	}
}

// CloneUnknownAttrs deep-copies a slice of opaque attributes.
func CloneUnknownAttrs(in []UnknownAttr) []UnknownAttr {
	if len(in) == 0 {
		return nil
	}
	out := make([]UnknownAttr, len(in))
	for i, u := range in {
		out[i] = UnknownAttr{Flags: u.Flags, Code: u.Code, Value: append([]byte(nil), u.Value...)}
	}
	return out
}

// FindUnknownAttr returns the value of the first opaque attribute with
// the given code, or nil.
func FindUnknownAttr(attrs []UnknownAttr, code uint8) []byte {
	for _, u := range attrs {
		if u.Code == code {
			return u.Value
		}
	}
	return nil
}

// Path attribute type codes.
const (
	attrOrigin          uint8 = 1
	attrASPath          uint8 = 2
	attrNextHop         uint8 = 3
	attrLocalPref       uint8 = 5
	attrAtomicAggregate uint8 = 6
	attrAggregator      uint8 = 7
	attrCommunity       uint8 = 8
)

// Path attribute flags.
const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagPartial    uint8 = 0x20
	flagExtLen     uint8 = 0x10
)

// Type implements Message.
func (*Update) Type() MsgType { return MsgUpdate }

func (u *Update) encodeBody(dst []byte) ([]byte, error) {
	// Both length-prefixed sections are appended in place and their
	// lengths fixed up afterwards, so encoding a full UPDATE never
	// builds intermediate slices.
	wOff := len(dst)
	dst = append(dst, 0, 0) // withdrawn routes length, fixed up below
	dst, err := encodePrefixes(dst, u.Withdrawn)
	if err != nil {
		return nil, fmt.Errorf("encode withdrawn routes: %w", err)
	}
	if len(dst)-wOff-2 > 0xffff {
		return nil, fmt.Errorf("encode withdrawn routes: section %d bytes", len(dst)-wOff-2)
	}
	binary.BigEndian.PutUint16(dst[wOff:], uint16(len(dst)-wOff-2))
	aOff := len(dst)
	dst = append(dst, 0, 0) // total path attribute length, fixed up below
	dst, err = u.Attrs.encode(dst, len(u.NLRI) > 0)
	if err != nil {
		return nil, err
	}
	if len(dst)-aOff-2 > 0xffff {
		return nil, fmt.Errorf("encode attributes: section %d bytes", len(dst)-aOff-2)
	}
	binary.BigEndian.PutUint16(dst[aOff:], uint16(len(dst)-aOff-2))
	dst, err = encodePrefixes(dst, u.NLRI)
	if err != nil {
		return nil, fmt.Errorf("encode NLRI: %w", err)
	}
	return dst, nil
}

// appendAttrHeader appends one attribute header for a value of vLen
// bytes; the caller appends the value itself. The extended-length bit
// describes this encoding, not the attribute, so it is recomputed from
// the actual value size.
func appendAttrHeader(dst []byte, flags, code uint8, vLen int) ([]byte, error) {
	if vLen > 0xffff {
		return nil, fmt.Errorf("attribute %d too long: %d bytes", code, vLen)
	}
	flags &^= flagExtLen
	if vLen > 0xff {
		flags |= flagExtLen
		dst = append(dst, flags, code)
		return binary.BigEndian.AppendUint16(dst, uint16(vLen)), nil
	}
	return append(dst, flags, code, uint8(vLen)), nil
}

func (a *PathAttrs) encode(dst []byte, mandatory bool) ([]byte, error) {
	var err error
	if a.HasOrigin || mandatory {
		if dst, err = appendAttrHeader(dst, flagTransitive, attrOrigin, 1); err != nil {
			return nil, err
		}
		dst = append(dst, uint8(a.Origin))
	}
	if len(a.ASPath.Segments) > 0 || mandatory {
		pLen := 0
		for _, seg := range a.ASPath.Segments {
			if len(seg.ASNs) > 255 {
				return nil, fmt.Errorf("AS_PATH segment with %d ASNs exceeds 255", len(seg.ASNs))
			}
			pLen += 2 + 2*len(seg.ASNs)
		}
		if dst, err = appendAttrHeader(dst, flagTransitive, attrASPath, pLen); err != nil {
			return nil, err
		}
		for _, seg := range a.ASPath.Segments {
			dst = append(dst, uint8(seg.Type), uint8(len(seg.ASNs)))
			for _, asn := range seg.ASNs {
				dst = binary.BigEndian.AppendUint16(dst, as2of(asn))
			}
		}
	}
	if a.HasNextHop || mandatory {
		if dst, err = appendAttrHeader(dst, flagTransitive, attrNextHop, 4); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint32(dst, a.NextHop)
	}
	if a.HasLocalPref {
		if dst, err = appendAttrHeader(dst, flagTransitive, attrLocalPref, 4); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint32(dst, a.LocalPref)
	}
	if a.AtomicAggregate {
		if dst, err = appendAttrHeader(dst, flagTransitive, attrAtomicAggregate, 0); err != nil {
			return nil, err
		}
	}
	if a.HasAggregator {
		if dst, err = appendAttrHeader(dst, flagOptional|flagTransitive, attrAggregator, 6); err != nil {
			return nil, err
		}
		dst = binary.BigEndian.AppendUint16(dst, as2of(a.AggregatorAS))
		dst = binary.BigEndian.AppendUint32(dst, a.AggregatorID)
	}
	if len(a.Communities) > 0 {
		if dst, err = appendAttrHeader(dst, flagOptional|flagTransitive, attrCommunity, 4*len(a.Communities)); err != nil {
			return nil, err
		}
		for _, c := range a.Communities {
			dst = binary.BigEndian.AppendUint32(dst, uint32(c))
		}
	}
	for _, u := range a.Unknown {
		if dst, err = appendAttrHeader(dst, u.Flags|flagPartial, u.Code, len(u.Value)); err != nil {
			return nil, err
		}
		dst = append(dst, u.Value...)
	}
	return dst, nil
}

// reset clears the attribute set for reuse, keeping the capacity of the
// decoded slices so steady-state decoding does not reallocate.
func (a *PathAttrs) reset() {
	comms := a.Communities[:0]
	unknown := a.Unknown[:0]
	segs := a.ASPath.Segments[:0]
	*a = PathAttrs{
		Communities: comms,
		Unknown:     unknown,
		ASPath:      astypes.ASPath{Segments: segs},
	}
}

// decodeUpdateInto parses an UPDATE body into u, which is reset first.
// A non-nil d supplies reusable decode scratch and makes the decoded
// message alias both d and body: unknown-attribute values point into
// body, and slices are reused on d's next Decode. With d == nil every
// byte is copied and the result is independently owned.
func decodeUpdateInto(u *Update, d *Decoder, body []byte) (*Update, error) {
	u.Withdrawn = u.Withdrawn[:0]
	u.NLRI = u.NLRI[:0]
	u.Attrs.reset()
	if len(body) < 4 {
		return nil, msgErrf(ErrCodeUpdate, SubMalformedAttrList, "UPDATE body %d bytes", len(body))
	}
	wLen := int(binary.BigEndian.Uint16(body[:2]))
	rest := body[2:]
	if wLen > len(rest) {
		return nil, msgErrf(ErrCodeUpdate, SubMalformedAttrList, "withdrawn length %d exceeds body", wLen)
	}
	var err error
	u.Withdrawn, err = decodePrefixes(u.Withdrawn, rest[:wLen])
	if err != nil {
		return nil, msgErrf(ErrCodeUpdate, SubMalformedNLRI, "withdrawn routes: %v", err)
	}
	rest = rest[wLen:]
	if len(rest) < 2 {
		return nil, msgErrf(ErrCodeUpdate, SubMalformedAttrList, "missing attribute length")
	}
	aLen := int(binary.BigEndian.Uint16(rest[:2]))
	rest = rest[2:]
	if aLen > len(rest) {
		return nil, msgErrf(ErrCodeUpdate, SubMalformedAttrList, "attribute length %d exceeds body", aLen)
	}
	if err := u.Attrs.decode(rest[:aLen], d); err != nil {
		return nil, err
	}
	u.NLRI, err = decodePrefixes(u.NLRI, rest[aLen:])
	if err != nil {
		return nil, msgErrf(ErrCodeUpdate, SubMalformedNLRI, "NLRI: %v", err)
	}
	if len(u.NLRI) > 0 {
		if !u.Attrs.HasOrigin {
			return nil, msgErrf(ErrCodeUpdate, SubMissingMandatory, "ORIGIN missing")
		}
		if !u.Attrs.HasNextHop {
			return nil, msgErrf(ErrCodeUpdate, SubMissingMandatory, "NEXT_HOP missing")
		}
	}
	return u, nil
}

func (a *PathAttrs) decode(data []byte, d *Decoder) error {
	// Duplicate detection on the stack: a map here costs an allocation
	// per UPDATE decoded.
	var seen [256]bool
	for len(data) > 0 {
		if len(data) < 3 {
			return msgErrf(ErrCodeUpdate, SubMalformedAttrList, "truncated attribute header")
		}
		flags, code := data[0], data[1]
		var (
			vLen int
			off  int
		)
		if flags&flagExtLen != 0 {
			if len(data) < 4 {
				return msgErrf(ErrCodeUpdate, SubMalformedAttrList, "truncated extended length")
			}
			vLen = int(binary.BigEndian.Uint16(data[2:4]))
			off = 4
		} else {
			vLen = int(data[2])
			off = 3
		}
		if off+vLen > len(data) {
			return msgErrf(ErrCodeUpdate, SubAttrLengthError, "attribute %d length %d exceeds remaining", code, vLen)
		}
		val := data[off : off+vLen]
		data = data[off+vLen:]
		if seen[code] {
			return msgErrf(ErrCodeUpdate, SubMalformedAttrList, "duplicate attribute %d", code)
		}
		seen[code] = true
		switch code {
		case attrOrigin:
			if vLen != 1 {
				return msgErrf(ErrCodeUpdate, SubAttrLengthError, "ORIGIN length %d", vLen)
			}
			if val[0] > uint8(OriginIncomplete) {
				return msgErrf(ErrCodeUpdate, SubInvalidOrigin, "ORIGIN value %d", val[0])
			}
			a.HasOrigin, a.Origin = true, OriginCode(val[0])
		case attrASPath:
			if err := decodeASPathInto(&a.ASPath, d, val); err != nil {
				return err
			}
		case attrNextHop:
			if vLen != 4 {
				return msgErrf(ErrCodeUpdate, SubInvalidNextHop, "NEXT_HOP length %d", vLen)
			}
			a.HasNextHop, a.NextHop = true, binary.BigEndian.Uint32(val)
		case attrLocalPref:
			if vLen != 4 {
				return msgErrf(ErrCodeUpdate, SubAttrLengthError, "LOCAL_PREF length %d", vLen)
			}
			a.HasLocalPref, a.LocalPref = true, binary.BigEndian.Uint32(val)
		case attrAtomicAggregate:
			if vLen != 0 {
				return msgErrf(ErrCodeUpdate, SubAttrLengthError, "ATOMIC_AGGREGATE length %d", vLen)
			}
			a.AtomicAggregate = true
		case attrAggregator:
			if vLen != 6 {
				return msgErrf(ErrCodeUpdate, SubAttrLengthError, "AGGREGATOR length %d", vLen)
			}
			a.HasAggregator = true
			a.AggregatorAS = astypes.ASN(binary.BigEndian.Uint16(val[:2]))
			a.AggregatorID = binary.BigEndian.Uint32(val[2:6])
		case attrCommunity:
			if vLen%4 != 0 {
				return msgErrf(ErrCodeUpdate, SubAttrLengthError, "COMMUNITY length %d", vLen)
			}
			for i := 0; i < vLen; i += 4 {
				a.Communities = append(a.Communities, astypes.Community(binary.BigEndian.Uint32(val[i:i+4])))
			}
		default:
			if flags&flagOptional == 0 {
				return msgErrf(ErrCodeUpdate, SubUnrecognizedAttr, "well-known attribute %d unrecognized", code)
			}
			if flags&flagTransitive != 0 {
				value := val
				if d == nil {
					// Copy so the decoded message outlives the input
					// buffer; scratch decoding aliases it instead.
					value = append([]byte(nil), val...)
				}
				a.Unknown = append(a.Unknown, UnknownAttr{
					// Strip the length-encoding bit: it is recomputed on
					// re-encode and must not leak into stored state.
					Flags: flags &^ flagExtLen,
					Code:  code,
					Value: value,
				})
			}
			// Optional non-transitive unknown attributes are silently dropped.
		}
	}
	return nil
}

// decodeASPathInto parses an AS_PATH attribute value into path. With a
// non-nil Decoder the segment ASN storage comes from d's flat scratch
// slice (valid until d's next Decode); otherwise each segment allocates
// its own backing array.
func decodeASPathInto(path *astypes.ASPath, d *Decoder, val []byte) error {
	segs := path.Segments[:0]
	var asns []astypes.ASN
	if d != nil {
		// Pre-size the flat scratch so appends below never reallocate
		// (a mid-decode growth would strand earlier segments on the old
		// backing array).
		total := 0
		for rest := val; len(rest) > 0; {
			if len(rest) < 2 {
				break // the main loop reports the framing error
			}
			count := int(rest[1])
			total += count
			need := 2 + 2*count
			if len(rest) < need {
				break
			}
			rest = rest[need:]
		}
		if cap(d.asns) < total {
			// Scratch growth, amortized to zero once d.asns reaches the high-water mark.
			d.asns = make([]astypes.ASN, 0, total)
		}
		asns = d.asns[:0]
	}
	for len(val) > 0 {
		if len(val) < 2 {
			return msgErrf(ErrCodeUpdate, SubMalformedASPath, "truncated segment header")
		}
		segType, count := val[0], int(val[1])
		if segType != uint8(astypes.SegSequence) && segType != uint8(astypes.SegSet) {
			return msgErrf(ErrCodeUpdate, SubMalformedASPath, "segment type %d", segType)
		}
		need := 2 + 2*count
		if len(val) < need {
			return msgErrf(ErrCodeUpdate, SubMalformedASPath, "segment needs %d bytes, have %d", need, len(val))
		}
		var segASNs []astypes.ASN
		if d != nil {
			start := len(asns)
			for i := 0; i < count; i++ {
				asns = append(asns, astypes.ASN(binary.BigEndian.Uint16(val[2+2*i:4+2*i])))
			}
			segASNs = asns[start:len(asns):len(asns)]
		} else {
			// The copying decode mode (d == nil); the scratch path above carves from d.asns.
			segASNs = make([]astypes.ASN, count)
			for i := 0; i < count; i++ {
				segASNs[i] = astypes.ASN(binary.BigEndian.Uint16(val[2+2*i : 4+2*i]))
			}
		}
		segs = append(segs, astypes.Segment{Type: astypes.SegmentType(segType), ASNs: segASNs})
		val = val[need:]
	}
	path.Segments = segs
	if d != nil {
		d.asns = asns
	}
	return nil
}

func encodePrefixes(dst []byte, prefixes []astypes.Prefix) ([]byte, error) {
	for _, p := range prefixes {
		if p.Len > 32 {
			return nil, fmt.Errorf("prefix length %d out of range", p.Len)
		}
		dst = append(dst, p.Len)
		octets := (int(p.Len) + 7) / 8
		for i := 0; i < octets; i++ {
			dst = append(dst, byte(p.Addr>>uint(24-8*i)))
		}
	}
	return dst, nil
}

// decodePrefixes appends the prefixes encoded in data to out.
func decodePrefixes(out []astypes.Prefix, data []byte) ([]astypes.Prefix, error) {
	for len(data) > 0 {
		length := data[0]
		if length > 32 {
			return nil, fmt.Errorf("prefix length %d out of range", length)
		}
		octets := (int(length) + 7) / 8
		if len(data) < 1+octets {
			return nil, fmt.Errorf("truncated prefix of length %d", length)
		}
		var addr uint32
		for i := 0; i < octets; i++ {
			addr |= uint32(data[1+i]) << uint(24-8*i)
		}
		// Mask off any stray host bits rather than rejecting: RFC 4271
		// leaves trailing bits unspecified.
		if length > 0 {
			addr &= ^uint32(0) << (32 - length)
		} else {
			addr = 0
		}
		p, err := astypes.NewPrefix(addr, length)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		data = data[1+octets:]
	}
	return out, nil
}

// AppendMessage serializes a full message (header + body) onto dst and
// returns the extended slice. When dst has spare capacity no allocation
// occurs; this is the zero-allocation core that Encode, WriteMessage
// and Writer share.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
		0, 0, uint8(m.Type()))
	dst, err := m.encodeBody(dst)
	if err != nil {
		return nil, fmt.Errorf("encode %s: %w", m.Type(), err)
	}
	if len(dst)-start > MaxMessageLen {
		return nil, fmt.Errorf("encode %s: message %d bytes exceeds max %d", m.Type(), len(dst)-start, MaxMessageLen)
	}
	binary.BigEndian.PutUint16(dst[start+16:start+18], uint16(len(dst)-start))
	return dst, nil
}

// Encode serializes a full message (header + body) into a fresh buffer.
func Encode(m Message) ([]byte, error) {
	return AppendMessage(make([]byte, 0, HeaderLen+64), m)
}

// checkHeader validates the marker, declared length, and framing of one
// complete message and returns its type code and body.
func checkHeader(buf []byte) (MsgType, []byte, error) {
	if len(buf) < HeaderLen {
		return 0, nil, msgErrf(ErrCodeHeader, SubBadLength, "message %d bytes < header", len(buf))
	}
	for i := 0; i < markerLen; i++ {
		if buf[i] != 0xff {
			return 0, nil, msgErrf(ErrCodeHeader, SubConnNotSynced, "bad marker")
		}
	}
	totalLen := int(binary.BigEndian.Uint16(buf[16:18]))
	if totalLen != len(buf) || totalLen > MaxMessageLen {
		return 0, nil, msgErrf(ErrCodeHeader, SubBadLength, "declared length %d, have %d", totalLen, len(buf))
	}
	return MsgType(buf[18]), buf[HeaderLen:], nil
}

// Decode parses one complete message from buf (header included). The
// returned message owns all of its memory; use a Decoder for the
// allocation-free variant.
func Decode(buf []byte) (Message, error) {
	t, body, err := checkHeader(buf)
	if err != nil {
		return nil, err
	}
	switch t {
	case MsgOpen:
		return decodeOpen(body)
	case MsgUpdate:
		return decodeUpdateInto(&Update{}, nil, body)
	case MsgNotification:
		return decodeNotification(body)
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, msgErrf(ErrCodeHeader, SubBadLength, "KEEPALIVE with body")
		}
		return &Keepalive{}, nil
	case MsgRouteRefresh:
		return decodeRouteRefresh(body)
	default:
		return nil, msgErrf(ErrCodeHeader, SubBadType, "type %d", uint8(t))
	}
}

// readFrame reads one framed message from r into buf (which must hold
// MaxMessageLen bytes) and returns its total length. The 16-byte marker
// is validated as part of the header read — before any body byte is
// consumed — so a desynchronized peer fails fast with ErrCodeHeader/
// SubConnNotSynced instead of feeding up to MaxMessageLen of garbage
// through the body read.
func readFrame(r io.Reader, buf []byte) (int, error) {
	if _, err := io.ReadFull(r, buf[:HeaderLen]); err != nil {
		return 0, err
	}
	for i := 0; i < markerLen; i++ {
		if buf[i] != 0xff {
			return 0, msgErrf(ErrCodeHeader, SubConnNotSynced, "bad marker")
		}
	}
	totalLen := int(binary.BigEndian.Uint16(buf[16:18]))
	if totalLen < HeaderLen || totalLen > MaxMessageLen {
		return 0, msgErrf(ErrCodeHeader, SubBadLength, "declared length %d", totalLen)
	}
	if _, err := io.ReadFull(r, buf[HeaderLen:totalLen]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	return totalLen, nil
}

// ReadMessage reads exactly one message from r, using the header length
// field to frame it. The read buffer is pooled; the returned message
// owns all of its memory. Long-lived readers should prefer a Reader,
// which also reuses the decoded message.
func ReadMessage(r io.Reader) (Message, error) {
	bp := msgBufPool.Get().(*[]byte)
	buf := (*bp)[:MaxMessageLen]
	n, err := readFrame(r, buf)
	if err != nil {
		msgBufPool.Put(bp)
		return nil, err
	}
	m, err := Decode(buf[:n])
	msgBufPool.Put(bp)
	return m, err
}

// WriteMessage encodes and writes one message to w as a single Write,
// using a pooled encode buffer.
func WriteMessage(w io.Writer, m Message) error {
	bp := msgBufPool.Get().(*[]byte)
	buf, err := AppendMessage((*bp)[:0], m)
	if err != nil {
		msgBufPool.Put(bp)
		return err
	}
	_, err = w.Write(buf)
	*bp = buf[:0]
	msgBufPool.Put(bp)
	return err
}
