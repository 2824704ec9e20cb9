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
	w   io.Writer
	buf []byte // the record being assembled: header, then body
}

// NewWriter returns a Writer emitting records to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w}
}

// begin starts a record in the Writer's buffer, the header left blank
// for finish; the caller appends the body.
func (wr *Writer) begin() []byte {
	return append(wr.buf[:0], make([]byte, headerLen)...)
}

// finish fills in the header of rec, a record begun by begin, and
// writes it in a single Write call.
func (wr *Writer) finish(rec []byte, t time.Time, typ, sub uint16) error {
	wr.buf = rec
	bodyLen := len(rec) - headerLen
	if bodyLen > MaxRecordLen {
		return fmt.Errorf("mrt: record body %d bytes exceeds max %d", bodyLen, MaxRecordLen)
	}
	binary.BigEndian.PutUint32(rec[0:4], uint32(t.Unix()))
	binary.BigEndian.PutUint16(rec[4:6], typ)
	binary.BigEndian.PutUint16(rec[6:8], sub)
	binary.BigEndian.PutUint32(rec[8:12], uint32(bodyLen))
	_, err := wr.w.Write(rec)
	return err
}

// WritePeerIndex emits a TABLE_DUMP_V2 PEER_INDEX_TABLE. Peers with
// AS > 65535 are encoded with the 4-byte-AS peer type bit; IPv6 peers
// get a zero address (the Peer type does not carry one).
func (wr *Writer) WritePeerIndex(t time.Time, collectorID uint32, viewName string, peers []Peer) error {
	if len(viewName) > 0xffff || len(peers) > 0xffff {
		return fmt.Errorf("mrt: peer index table too large")
	}
	b := binary.BigEndian.AppendUint32(wr.begin(), collectorID)
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
	return wr.finish(b, t, TypeTableDumpV2, SubPeerIndexTable)
}

// WriteRIB emits a TABLE_DUMP_V2 RIB_IPV4_UNICAST record: one prefix
// with its per-peer entries. AS_PATH values are encoded 4-byte wide, as
// the format requires. Entry attributes emitted: ORIGIN, AS_PATH and
// NEXT_HOP always; LOCAL_PREF and COMMUNITY when present.
func (wr *Writer) WriteRIB(t time.Time, seq uint32, prefix astypes.Prefix, entries []RIBEntry) error {
	if len(entries) > 0xffff {
		return fmt.Errorf("mrt: %d RIB entries exceed uint16", len(entries))
	}
	b := binary.BigEndian.AppendUint32(wr.begin(), seq)
	b, err := wire.AppendPrefix(b, prefix)
	if err != nil {
		return fmt.Errorf("mrt: %w", err)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(entries)))
	for i := range entries {
		e := &entries[i]
		b = binary.BigEndian.AppendUint16(b, e.PeerIndex)
		b = binary.BigEndian.AppendUint32(b, e.Originated)
		aOff := len(b)
		b = append(b, 0, 0) // attribute length, fixed up below
		b, err = wire.AppendPathAttrs(b, &wire.PathAttrs{
			Origin:       e.Origin,
			ASPath:       e.Path,
			NextHop:      e.NextHop,
			HasLocalPref: e.HasLocalPref,
			LocalPref:    e.LocalPref,
			Communities:  e.Communities,
		}, wire.AS4)
		if err != nil {
			return fmt.Errorf("mrt: RIB entry %d: %w", i, err)
		}
		aLen := len(b) - aOff - 2
		if aLen > 0xffff {
			return fmt.Errorf("mrt: RIB entry %d attributes %d bytes exceed uint16", i, aLen)
		}
		binary.BigEndian.PutUint16(b[aOff:], uint16(aLen))
	}
	return wr.finish(b, t, TypeTableDumpV2, SubRIBIPv4Unicast)
}

// WriteUpdate emits a BGP4MP MESSAGE record carrying u as a standard
// 2-byte-AS UPDATE. Peer and local AS numbers above 65535 are written
// as AS_TRANS.
func (wr *Writer) WriteUpdate(t time.Time, peerAS, localAS astypes.ASN, peerIP, localIP uint32, u *wire.Update) error {
	return wr.writeMessage(t, SubMessage, uint32(peerAS), uint32(localAS), peerIP, localIP, u, wire.AS2)
}

// WriteUpdateAS4 emits a BGP4MP MESSAGE_AS4 record: 4-byte AS numbers
// in the peer header and in the embedded UPDATE's AS_PATH.
func (wr *Writer) WriteUpdateAS4(t time.Time, peerAS, localAS uint32, peerIP, localIP uint32, u *wire.Update) error {
	return wr.writeMessage(t, SubMessageAS4, peerAS, localAS, peerIP, localIP, u, wire.AS4)
}

func (wr *Writer) writeMessage(t time.Time, sub uint16, peerAS, localAS, peerIP, localIP uint32, u *wire.Update, w wire.ASWidth) error {
	b, err := wire.AppendUpdate(appendPeerHeader(wr.begin(), peerAS, localAS, peerIP, localIP, w), u, w)
	if err != nil {
		return fmt.Errorf("mrt: encode UPDATE: %w", err)
	}
	return wr.finish(b, t, TypeBGP4MP, sub)
}

// WriteStateChange emits a BGP4MP STATE_CHANGE record. Peer and local
// AS numbers above 65535 are written as AS_TRANS.
func (wr *Writer) WriteStateChange(t time.Time, peerAS, localAS astypes.ASN, peerIP, localIP uint32, oldState, newState uint16) error {
	b := appendPeerHeader(wr.begin(), uint32(peerAS), uint32(localAS), peerIP, localIP, wire.AS2)
	b = binary.BigEndian.AppendUint16(b, oldState)
	b = binary.BigEndian.AppendUint16(b, newState)
	return wr.finish(b, t, TypeBGP4MP, SubStateChange)
}

// appendPeerHeader appends the BGP4MP peer header of an IPv4 session:
// peer and local AS w octets wide, interface index 0, AFI 1 and the
// two addresses.
func appendPeerHeader(b []byte, peerAS, localAS, peerIP, localIP uint32, w wire.ASWidth) []byte {
	if w == wire.AS4 {
		b = binary.BigEndian.AppendUint32(b, peerAS)
		b = binary.BigEndian.AppendUint32(b, localAS)
	} else {
		b = binary.BigEndian.AppendUint16(b, wire.NarrowAS(astypes.ASN(peerAS)))
		b = binary.BigEndian.AppendUint16(b, wire.NarrowAS(astypes.ASN(localAS)))
	}
	b = binary.BigEndian.AppendUint16(b, 0) // interface index
	b = binary.BigEndian.AppendUint16(b, 1) // AFI IPv4
	b = binary.BigEndian.AppendUint32(b, peerIP)
	return binary.BigEndian.AppendUint32(b, localIP)
}
