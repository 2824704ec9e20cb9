package mrt

import (
	"bytes"
	"encoding/hex"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// Golden fixtures: byte-exact hex records with their expected decoded
// structures. The hex is hand-assembled from RFC 6396 field layouts so
// the reader is checked against the spec, not against the Writer.

// mustHex decodes a whitespace-tolerant hex string.
func mustHex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatalf("bad fixture hex: %v", err)
	}
	return b
}

// Fixture hex. Common header: timestamp(4) type(2) subtype(2) length(4).
const (
	// PEER_INDEX_TABLE: collector 10.0.0.1, view "view", two peers —
	// peer 0 AS2 65001 at 192.0.2.1, peer 1 AS4 196615 at 192.0.2.2.
	hexPeerIndex = `3B9ACA00 000D 0001 00000024
		0A000001 0004 76696577 0002
		00 01010101 C0000201 FDE9
		02 02020202 C0000202 00030007`

	// RIB_IPV4_UNICAST: seq 5, 10.0.0.0/8, one entry from peer 1 with
	// ORIGIN IGP, AS_PATH (4-byte) 196615 65001, NEXT_HOP 192.0.2.1.
	hexRIB = `3B9ACA01 000D 0002 00000028
		00000005 08 0A 0001
		0001 00000064 0018
		40 01 01 00
		40 02 0A 02 02 00030007 0000FDE9
		40 03 04 C0000201`

	// BGP4MP MESSAGE (2-byte AS): AS 65001 -> AS 6502 announcing
	// 192.0.2.0/24, path 65001 65002, ORIGIN IGP, NEXT_HOP 10.0.0.1.
	hexUpdateAS2 = `3B9ACA02 0010 0001 0000003F
		FDE9 1966 0000 0001 C0000201 C0000202
		FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF 002F 02
		0000 0014
		40 01 01 00
		40 02 06 02 02 FDE9 FDEA
		40 03 04 0A000001
		18 C00002`

	// BGP4MP MESSAGE_AS4: peer AS 196615 (out of 16-bit range), path
	// 196615 65002 with 4-byte encoding; both narrow to AS_TRANS.
	hexUpdateAS4 = `3B9ACA03 0010 0004 00000047
		00030007 00001966 0000 0001 C0000201 C0000202
		FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF 0033 02
		0000 0018
		40 01 01 00
		40 02 0A 02 02 00030007 0000FDEA
		40 03 04 0A000001
		18 C00002`

	// BGP4MP STATE_CHANGE: peer 65001, OpenConfirm(5) -> Established(6).
	hexStateChange = `3B9ACA04 0010 0000 00000014
		FDE9 1966 0000 0001 C0000201 C0000202 0005 0006`

	// BGP4MP_ET MESSAGE: the AS2 update with a 500000µs extended
	// timestamp prepended to the body.
	hexUpdateET = `3B9ACA02 0011 0001 00000043
		0007A120
		FDE9 1966 0000 0001 C0000201 C0000202
		FFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF 002F 02
		0000 0014
		40 01 01 00
		40 02 06 02 02 FDE9 FDEA
		40 03 04 0A000001
		18 C00002`

	// A record type the reader skips (classic TABLE_DUMP, type 12).
	hexSkipped = `3B9ACA05 000C 0001 00000004 DEADBEEF`

	// Truncated header: stream ends 6 bytes into the 12-byte header.
	hexTruncHeader = `3B9ACA00 000D`

	// Truncated body: header declares 20 bytes, stream carries 8.
	hexTruncBody = `3B9ACA00 000D 0002 00000014 0000000508`
)

func readAll(t *testing.T, data []byte) ([]Record, *Reader) {
	t.Helper()
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out []Record
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return out, rd
		}
		if err != nil {
			t.Fatalf("record %d: %v", len(out)+1, err)
		}
		// Deep-copy the scratch-aliasing record so the table survives
		// subsequent Next calls.
		out = append(out, copyRecord(rec))
	}
}

func copyRecord(r *Record) Record {
	c := *r
	c.Entries = append([]RIBEntry(nil), r.Entries...)
	for i := range c.Entries {
		c.Entries[i].Path = c.Entries[i].Path.Clone()
		c.Entries[i].Communities = append([]astypes.Community(nil), c.Entries[i].Communities...)
	}
	if r.Update != nil {
		u := &wire.Update{
			Withdrawn: append([]astypes.Prefix(nil), r.Update.Withdrawn...),
			Attrs:     r.Update.Attrs,
			NLRI:      append([]astypes.Prefix(nil), r.Update.NLRI...),
		}
		u.Attrs.ASPath = r.Update.Attrs.ASPath.Clone()
		u.Attrs.Communities = append([]astypes.Community(nil), r.Update.Attrs.Communities...)
		u.Attrs.Unknown = wire.CloneUnknownAttrs(r.Update.Attrs.Unknown)
		c.Update = u
	}
	return c
}

func TestGoldenPeerIndex(t *testing.T) {
	recs, rd := readAll(t, mustHex(t, hexPeerIndex))
	if len(recs) != 1 {
		t.Fatalf("decoded %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != KindPeerIndex || r.Type != TypeTableDumpV2 || r.Subtype != SubPeerIndexTable {
		t.Fatalf("kind/type/subtype = %v/%d/%d", r.Kind, r.Type, r.Subtype)
	}
	if r.Span != 1 || r.Offset != 0 {
		t.Errorf("span %d offset %d, want 1, 0", r.Span, r.Offset)
	}
	if r.Time != time.Unix(1000000000, 0).UTC() {
		t.Errorf("time %v", r.Time)
	}
	if r.CollectorID != 0x0A000001 || r.ViewName != "view" {
		t.Errorf("collector %x view %q", r.CollectorID, r.ViewName)
	}
	wantPeers := []Peer{
		{BGPID: 0x01010101, IP: 0xC0000201, AS: 65001},
		{BGPID: 0x02020202, IP: 0xC0000202, AS: 196615},
	}
	if !reflect.DeepEqual(r.Peers, wantPeers) {
		t.Errorf("peers %+v\nwant  %+v", r.Peers, wantPeers)
	}
	if got := wantPeers[1].ASN(); got != ASTrans {
		t.Errorf("out-of-range peer ASN() = %d, want AS_TRANS", got)
	}
	if s := rd.Stats(); s.Records != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestGoldenRIB(t *testing.T) {
	data := append(mustHex(t, hexPeerIndex), mustHex(t, hexRIB)...)
	recs, rd := readAll(t, data)
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
	r := recs[1]
	if r.Kind != KindRIB || r.Span != 2 || r.Offset != 48 {
		t.Fatalf("kind %v span %d offset %d (want rib, 2, 48)", r.Kind, r.Span, r.Offset)
	}
	if r.Seq != 5 || r.Prefix != astypes.MustPrefix(0x0A000000, 8) {
		t.Errorf("seq %d prefix %s", r.Seq, r.Prefix)
	}
	want := RIBEntry{
		PeerIndex:  1,
		PeerAS:     ASTrans,
		Originated: 100,
		Origin:     wire.OriginIGP,
		Path: astypes.ASPath{Segments: []astypes.Segment{
			{Type: astypes.SegSequence, ASNs: []astypes.ASN{ASTrans, 65001}},
		}},
		NextHop: 0xC0000201,
	}
	if len(r.Entries) != 1 || !reflect.DeepEqual(r.Entries[0], want) {
		t.Errorf("entries %+v\nwant   %+v", r.Entries, want)
	}
	s := rd.Stats()
	if s.RIBPrefixes != 1 || s.RIBEntries != 1 || s.AS4Substituted != 1 {
		t.Errorf("stats %+v (want 1 RIB prefix, 1 entry, 1 AS4 substitution)", s)
	}
}

func TestGoldenUpdateAS2(t *testing.T) {
	recs, rd := readAll(t, mustHex(t, hexUpdateAS2))
	if len(recs) != 1 {
		t.Fatalf("decoded %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != KindMessage || r.MsgType != wire.MsgUpdate {
		t.Fatalf("kind %v msgtype %v", r.Kind, r.MsgType)
	}
	if r.PeerAS != 65001 || r.LocalAS != 6502 {
		t.Errorf("peer %d local %d", r.PeerAS, r.LocalAS)
	}
	u := r.Update
	if u == nil {
		t.Fatal("no update decoded")
	}
	if len(u.NLRI) != 1 || u.NLRI[0] != astypes.MustPrefix(0xC0000200, 24) {
		t.Errorf("NLRI %v", u.NLRI)
	}
	wantPath := astypes.ASPath{Segments: []astypes.Segment{
		{Type: astypes.SegSequence, ASNs: []astypes.ASN{65001, 65002}},
	}}
	if !reflect.DeepEqual(u.Attrs.ASPath, wantPath) {
		t.Errorf("path %+v", u.Attrs.ASPath)
	}
	if !u.Attrs.HasOrigin || u.Attrs.Origin != wire.OriginIGP ||
		!u.Attrs.HasNextHop || u.Attrs.NextHop != 0x0A000001 {
		t.Errorf("attrs %+v", u.Attrs)
	}
	if s := rd.Stats(); s.Messages != 1 || s.Updates != 1 || s.AS4Substituted != 0 {
		t.Errorf("stats %+v", s)
	}
}

func TestGoldenUpdateAS4(t *testing.T) {
	recs, rd := readAll(t, mustHex(t, hexUpdateAS4))
	if len(recs) != 1 {
		t.Fatalf("decoded %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != KindMessage || r.Subtype != SubMessageAS4 {
		t.Fatalf("kind %v subtype %d", r.Kind, r.Subtype)
	}
	// Peer AS 196615 exceeds the 16-bit space: substituted.
	if r.PeerAS != ASTrans || r.LocalAS != 6502 {
		t.Errorf("peer %d local %d (want AS_TRANS, 6502)", r.PeerAS, r.LocalAS)
	}
	wantPath := astypes.ASPath{Segments: []astypes.Segment{
		{Type: astypes.SegSequence, ASNs: []astypes.ASN{ASTrans, 65002}},
	}}
	if !reflect.DeepEqual(r.Update.Attrs.ASPath, wantPath) {
		t.Errorf("path %+v", r.Update.Attrs.ASPath)
	}
	if s := rd.Stats(); s.AS4Substituted != 2 {
		t.Errorf("AS4Substituted = %d, want 2 (peer header + path)", s.AS4Substituted)
	}
}

func TestGoldenStateChange(t *testing.T) {
	recs, _ := readAll(t, mustHex(t, hexStateChange))
	if len(recs) != 1 {
		t.Fatalf("decoded %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Kind != KindStateChange || r.PeerAS != 65001 || r.OldState != 5 || r.NewState != 6 {
		t.Errorf("record %+v", r)
	}
}

func TestGoldenUpdateET(t *testing.T) {
	recs, _ := readAll(t, mustHex(t, hexUpdateET))
	if len(recs) != 1 {
		t.Fatalf("decoded %d records, want 1", len(recs))
	}
	r := recs[0]
	if r.Type != TypeBGP4MPET || r.Kind != KindMessage {
		t.Fatalf("type %d kind %v", r.Type, r.Kind)
	}
	want := time.Unix(1000000002, 500000*1000).UTC()
	if r.Time != want {
		t.Errorf("time %v, want %v (microsecond extension)", r.Time, want)
	}
	if len(r.Update.NLRI) != 1 {
		t.Errorf("update %+v", r.Update)
	}
}

func TestGoldenSkipped(t *testing.T) {
	recs, rd := readAll(t, mustHex(t, hexSkipped))
	if len(recs) != 1 || recs[0].Kind != KindSkipped {
		t.Fatalf("records %+v", recs)
	}
	if s := rd.Stats(); s.Skipped != 1 || s.Records != 1 {
		t.Errorf("stats %+v", s)
	}
}

// goldenStream concatenates every well-formed fixture; several tests
// and the fuzz corpus reuse it.
func goldenStream(t testing.TB) []byte {
	var b bytes.Buffer
	for _, h := range []string{
		hexPeerIndex, hexRIB, hexUpdateAS2, hexUpdateAS4, hexStateChange, hexUpdateET, hexSkipped,
	} {
		b.Write(mustHex(t, h))
	}
	return b.Bytes()
}

func TestGoldenStreamSpansAndOffsets(t *testing.T) {
	data := goldenStream(t)
	recs, _ := readAll(t, data)
	if len(recs) != 7 {
		t.Fatalf("decoded %d records, want 7", len(recs))
	}
	wantOffset := int64(0)
	for i, r := range recs {
		if r.Span != uint64(i+1) {
			t.Errorf("record %d span %d", i, r.Span)
		}
		if r.Offset != wantOffset {
			t.Errorf("record %d offset %d, want %d", i, r.Offset, wantOffset)
		}
		// Reconstruct expected offset from the declared length field.
		wantOffset += headerLen + int64(uint32(data[r.Offset+8])<<24|uint32(data[r.Offset+9])<<16|
			uint32(data[r.Offset+10])<<8|uint32(data[r.Offset+11]))
	}
}
