package mrt

import (
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// Writer emits MRT records. It backs the repository's one table-dump
// format (routegen.WriteMRT, which the collector archiver and
// moas-measure -emit-dumps write), as well as the test battery's golden
// fixtures, round-trip property test, synthetic tables and replayable
// e2e traces. Not safe for concurrent use.
type Writer struct {
	w    io.Writer
	rec  []byte // header + body assembly
	body []byte // body scratch
	msg  []byte // embedded BGP message scratch
}

// NewWriter returns a Writer emitting records to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// writeRecord frames body as one MRT record and writes it in a single
// Write call.
func (wr *Writer) writeRecord(t time.Time, typ, sub uint16, body []byte) error {
	if len(body) > MaxRecordLen {
		return fmt.Errorf("mrt: record body %d bytes exceeds max %d", len(body), MaxRecordLen)
	}
	wr.rec = wr.rec[:0]
	wr.rec = binary.BigEndian.AppendUint32(wr.rec, uint32(t.Unix()))
	wr.rec = binary.BigEndian.AppendUint16(wr.rec, typ)
	wr.rec = binary.BigEndian.AppendUint16(wr.rec, sub)
	wr.rec = binary.BigEndian.AppendUint32(wr.rec, uint32(len(body)))
	wr.rec = append(wr.rec, body...)
	_, err := wr.w.Write(wr.rec)
	return err
}

// WriteRaw emits one record with an arbitrary type, subtype and body —
// the escape hatch for fixtures the typed writers cannot express
// (records the reader skips, deliberately malformed bodies, AS_PATHs
// with out-of-range AS numbers).
func (wr *Writer) WriteRaw(t time.Time, typ, sub uint16, body []byte) error {
	return wr.writeRecord(t, typ, sub, body)
}

// WritePeerIndex emits a TABLE_DUMP_V2 PEER_INDEX_TABLE. Peers with
// AS > 65535 are encoded with the 4-byte-AS peer type bit; IPv6 peers
// get a zero address (the Peer type does not carry one).
func (wr *Writer) WritePeerIndex(t time.Time, collectorID uint32, viewName string, peers []Peer) error {
	if len(viewName) > 0xffff || len(peers) > 0xffff {
		return fmt.Errorf("mrt: peer index table too large")
	}
	b := wr.body[:0]
	b = binary.BigEndian.AppendUint32(b, collectorID)
	b = binary.BigEndian.AppendUint16(b, uint16(len(viewName)))
	b = append(b, viewName...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(peers)))
	for _, p := range peers {
		as4 := p.AS > 0xffff
		var pt uint8
		if p.IPv6 {
			pt |= 0x01
		}
		if as4 {
			pt |= 0x02
		}
		b = append(b, pt)
		b = binary.BigEndian.AppendUint32(b, p.BGPID)
		if p.IPv6 {
			b = append(b, make([]byte, 16)...)
		} else {
			b = binary.BigEndian.AppendUint32(b, p.IP)
		}
		if as4 {
			b = binary.BigEndian.AppendUint32(b, p.AS)
		} else {
			b = binary.BigEndian.AppendUint16(b, uint16(p.AS))
		}
	}
	wr.body = b
	return wr.writeRecord(t, TypeTableDumpV2, SubPeerIndexTable, b)
}

// WriteRIB emits a TABLE_DUMP_V2 RIB_IPV4_UNICAST record: one prefix
// with its per-peer entries. AS_PATH values are encoded 4-byte wide, as
// the format requires. Entry attributes emitted: ORIGIN, AS_PATH and
// NEXT_HOP always; LOCAL_PREF and COMMUNITY when present.
func (wr *Writer) WriteRIB(t time.Time, seq uint32, prefix astypes.Prefix, entries []RIBEntry) error {
	if prefix.Len > 32 {
		return fmt.Errorf("mrt: prefix length %d out of range", prefix.Len)
	}
	if len(entries) > 0xffff {
		return fmt.Errorf("mrt: %d RIB entries exceed uint16", len(entries))
	}
	b := wr.body[:0]
	b = binary.BigEndian.AppendUint32(b, seq)
	b = appendPrefix(b, prefix)
	b = binary.BigEndian.AppendUint16(b, uint16(len(entries)))
	for i, e := range entries {
		b = binary.BigEndian.AppendUint16(b, e.PeerIndex)
		b = binary.BigEndian.AppendUint32(b, e.Originated)
		aOff := len(b)
		b = append(b, 0, 0) // attribute length, fixed up below
		var err error
		b, err = appendRIBAttrs(b, &e)
		if err != nil {
			return fmt.Errorf("mrt: RIB entry %d: %w", i, err)
		}
		aLen := len(b) - aOff - 2
		if aLen > 0xffff {
			return fmt.Errorf("mrt: RIB entry %d attributes %d bytes exceed uint16", i, aLen)
		}
		binary.BigEndian.PutUint16(b[aOff:], uint16(aLen))
	}
	wr.body = b
	return wr.writeRecord(t, TypeTableDumpV2, SubRIBIPv4Unicast, b)
}

// WriteUpdate emits a BGP4MP MESSAGE record carrying u as a standard
// 2-byte-AS UPDATE (encoded by the wire codec).
func (wr *Writer) WriteUpdate(t time.Time, peerAS, localAS astypes.ASN, peerIP, localIP uint32, u *wire.Update) error {
	msg, err := wire.AppendMessage(wr.msg[:0], u)
	if err != nil {
		return fmt.Errorf("mrt: encode UPDATE: %w", err)
	}
	wr.msg = msg
	b := wr.body[:0]
	b = binary.BigEndian.AppendUint16(b, uint16(peerAS))
	b = binary.BigEndian.AppendUint16(b, uint16(localAS))
	b = binary.BigEndian.AppendUint16(b, 0) // interface index
	b = binary.BigEndian.AppendUint16(b, 1) // AFI IPv4
	b = binary.BigEndian.AppendUint32(b, peerIP)
	b = binary.BigEndian.AppendUint32(b, localIP)
	b = append(b, msg...)
	wr.body = b
	return wr.writeRecord(t, TypeBGP4MP, SubMessage, b)
}

// WriteUpdateAS4 emits a BGP4MP MESSAGE_AS4 record: 4-byte AS numbers
// in the peer header and a 4-byte-wide AS_PATH in the embedded UPDATE
// (widened from u's 16-bit values; AS numbers above 65535 need WriteRaw
// with a hand-built body).
func (wr *Writer) WriteUpdateAS4(t time.Time, peerAS, localAS uint32, peerIP, localIP uint32, u *wire.Update) error {
	msg, err := appendUpdateAS4(wr.msg[:0], u)
	if err != nil {
		return fmt.Errorf("mrt: encode AS4 UPDATE: %w", err)
	}
	wr.msg = msg
	b := wr.body[:0]
	b = binary.BigEndian.AppendUint32(b, peerAS)
	b = binary.BigEndian.AppendUint32(b, localAS)
	b = binary.BigEndian.AppendUint16(b, 0) // interface index
	b = binary.BigEndian.AppendUint16(b, 1) // AFI IPv4
	b = binary.BigEndian.AppendUint32(b, peerIP)
	b = binary.BigEndian.AppendUint32(b, localIP)
	b = append(b, msg...)
	wr.body = b
	return wr.writeRecord(t, TypeBGP4MP, SubMessageAS4, b)
}

// WriteStateChange emits a BGP4MP STATE_CHANGE record.
func (wr *Writer) WriteStateChange(t time.Time, peerAS, localAS astypes.ASN, peerIP, localIP uint32, oldState, newState uint16) error {
	b := wr.body[:0]
	b = binary.BigEndian.AppendUint16(b, uint16(peerAS))
	b = binary.BigEndian.AppendUint16(b, uint16(localAS))
	b = binary.BigEndian.AppendUint16(b, 0) // interface index
	b = binary.BigEndian.AppendUint16(b, 1) // AFI IPv4
	b = binary.BigEndian.AppendUint32(b, peerIP)
	b = binary.BigEndian.AppendUint32(b, localIP)
	b = binary.BigEndian.AppendUint16(b, oldState)
	b = binary.BigEndian.AppendUint16(b, newState)
	wr.body = b
	return wr.writeRecord(t, TypeBGP4MP, SubStateChange, b)
}

// appendPrefix appends one length-prefixed NLRI-style prefix.
func appendPrefix(dst []byte, p astypes.Prefix) []byte {
	dst = append(dst, p.Len)
	octets := (int(p.Len) + 7) / 8
	for i := 0; i < octets; i++ {
		dst = append(dst, byte(p.Addr>>uint(24-8*i)))
	}
	return dst
}

// appendAttr appends one attribute (header + value), choosing the
// extended-length encoding when the value exceeds 255 bytes.
func appendAttr(dst []byte, flags, code uint8, val []byte) ([]byte, error) {
	if len(val) > 0xffff {
		return nil, fmt.Errorf("attribute %d value %d bytes", code, len(val))
	}
	flags &^= afExtLen
	if len(val) > 0xff {
		flags |= afExtLen
		dst = append(dst, flags, code)
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(val)))
	} else {
		dst = append(dst, flags, code, uint8(len(val)))
	}
	return append(dst, val...), nil
}

// appendASPath4 appends a 4-byte-wide AS_PATH attribute for path.
func appendASPath4(dst []byte, path astypes.ASPath) ([]byte, error) {
	var val []byte
	for _, seg := range path.Segments {
		if len(seg.ASNs) > 255 {
			return nil, fmt.Errorf("AS_PATH segment with %d ASNs exceeds 255", len(seg.ASNs))
		}
		val = append(val, uint8(seg.Type), uint8(len(seg.ASNs)))
		for _, asn := range seg.ASNs {
			val = binary.BigEndian.AppendUint32(val, uint32(asn))
		}
	}
	return appendAttr(dst, 0x40, aASPath, val)
}

// appendRIBAttrs appends one RIB entry's attribute block.
func appendRIBAttrs(dst []byte, e *RIBEntry) ([]byte, error) {
	var err error
	if dst, err = appendAttr(dst, 0x40, aOrigin, []byte{uint8(e.Origin)}); err != nil {
		return nil, err
	}
	if dst, err = appendASPath4(dst, e.Path); err != nil {
		return nil, err
	}
	var u32 [4]byte
	binary.BigEndian.PutUint32(u32[:], e.NextHop)
	if dst, err = appendAttr(dst, 0x40, aNextHop, u32[:]); err != nil {
		return nil, err
	}
	if e.HasLocalPref {
		binary.BigEndian.PutUint32(u32[:], e.LocalPref)
		if dst, err = appendAttr(dst, 0x40, aLocalPref, u32[:]); err != nil {
			return nil, err
		}
	}
	if len(e.Communities) > 0 {
		var val []byte
		for _, c := range e.Communities {
			val = binary.BigEndian.AppendUint32(val, uint32(c))
		}
		if dst, err = appendAttr(dst, 0xc0, aCommunity, val); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// appendUpdateAS4 appends a full BGP UPDATE message (marker, header,
// body) with a 4-byte-wide AS_PATH — the embedded-message format of
// MESSAGE_AS4 records, which the 2-byte wire codec cannot produce.
func appendUpdateAS4(dst []byte, u *wire.Update) ([]byte, error) {
	start := len(dst)
	for i := 0; i < 16; i++ {
		dst = append(dst, 0xff)
	}
	dst = append(dst, 0, 0, uint8(wire.MsgUpdate))

	wOff := len(dst)
	dst = append(dst, 0, 0) // withdrawn routes length
	for _, p := range u.Withdrawn {
		dst = appendPrefix(dst, p)
	}
	binary.BigEndian.PutUint16(dst[wOff:], uint16(len(dst)-wOff-2))

	aOff := len(dst)
	dst = append(dst, 0, 0) // total path attribute length
	var err error
	if u.Attrs.HasOrigin || len(u.NLRI) > 0 {
		if dst, err = appendAttr(dst, 0x40, aOrigin, []byte{uint8(u.Attrs.Origin)}); err != nil {
			return nil, err
		}
	}
	if len(u.Attrs.ASPath.Segments) > 0 || len(u.NLRI) > 0 {
		if dst, err = appendASPath4(dst, u.Attrs.ASPath); err != nil {
			return nil, err
		}
	}
	var u32 [4]byte
	if u.Attrs.HasNextHop || len(u.NLRI) > 0 {
		binary.BigEndian.PutUint32(u32[:], u.Attrs.NextHop)
		if dst, err = appendAttr(dst, 0x40, aNextHop, u32[:]); err != nil {
			return nil, err
		}
	}
	if u.Attrs.HasLocalPref {
		binary.BigEndian.PutUint32(u32[:], u.Attrs.LocalPref)
		if dst, err = appendAttr(dst, 0x40, aLocalPref, u32[:]); err != nil {
			return nil, err
		}
	}
	if len(u.Attrs.Communities) > 0 {
		var val []byte
		for _, c := range u.Attrs.Communities {
			val = binary.BigEndian.AppendUint32(val, uint32(c))
		}
		if dst, err = appendAttr(dst, 0xc0, aCommunity, val); err != nil {
			return nil, err
		}
	}
	aLen := len(dst) - aOff - 2
	if aLen > 0xffff {
		return nil, fmt.Errorf("attribute section %d bytes", aLen)
	}
	binary.BigEndian.PutUint16(dst[aOff:], uint16(aLen))

	for _, p := range u.NLRI {
		dst = appendPrefix(dst, p)
	}
	if len(dst)-start > wire.MaxMessageLen {
		return nil, fmt.Errorf("UPDATE %d bytes exceeds max %d", len(dst)-start, wire.MaxMessageLen)
	}
	binary.BigEndian.PutUint16(dst[start+16:start+18], uint16(len(dst)-start))
	return dst, nil
}
