package mrt

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// ---------------------------------------------------------------------
// Partial-read and malformed-framing edge cases. The contract: framing
// errors (truncated header/body, absurd length) are terminal and
// sticky; body errors consume the record and let the stream continue;
// nothing ever panics or spins.
// ---------------------------------------------------------------------

func TestTruncatedHeader(t *testing.T) {
	rd, err := NewReader(bytes.NewReader(mustHex(t, hexTruncHeader)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rd.Next()
	if !errors.Is(err, ErrTruncatedHeader) {
		t.Fatalf("err = %v, want ErrTruncatedHeader", err)
	}
	var re *RecordError
	if !errors.As(err, &re) {
		t.Fatalf("err %T is not a *RecordError", err)
	}
	if re.Offset != 0 {
		t.Errorf("offset %d, want 0", re.Offset)
	}
	if !IsTerminal(err) {
		t.Error("truncated header should be terminal")
	}
	// Sticky: the same error again, no spinning or re-reads.
	if _, err2 := rd.Next(); err2 != err {
		t.Errorf("second Next returned %v, want the identical sticky error", err2)
	}
}

func TestTruncatedHeaderMidStream(t *testing.T) {
	// A full record followed by a partial header: the offset in the
	// error points at the failed record, not the stream start.
	data := append(mustHex(t, hexStateChange), mustHex(t, hexTruncHeader)...)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = rd.Next()
	var re *RecordError
	if !errors.As(err, &re) || !errors.Is(err, ErrTruncatedHeader) {
		t.Fatalf("err = %v", err)
	}
	if want := int64(len(mustHex(t, hexStateChange))); re.Offset != want {
		t.Errorf("offset %d, want %d", re.Offset, want)
	}
}

func TestTruncatedBody(t *testing.T) {
	rd, err := NewReader(bytes.NewReader(mustHex(t, hexTruncBody)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rd.Next()
	if !errors.Is(err, ErrTruncatedBody) || !IsTerminal(err) {
		t.Fatalf("err = %v, want terminal ErrTruncatedBody", err)
	}
	var re *RecordError
	if !errors.As(err, &re) {
		t.Fatal("not a *RecordError")
	}
	if re.Type != TypeTableDumpV2 || re.Subtype != SubRIBIPv4Unicast {
		t.Errorf("error type/subtype %d/%d", re.Type, re.Subtype)
	}
	if _, err2 := rd.Next(); err2 != err {
		t.Error("truncated body is not sticky")
	}
}

func TestBadLength(t *testing.T) {
	// Header declaring a body larger than MaxRecordLen.
	data := mustHex(t, `00000000 000D 0002 FFFFFFFF`)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rd.Next()
	if !errors.Is(err, ErrBadLength) || !IsTerminal(err) {
		t.Fatalf("err = %v, want terminal ErrBadLength", err)
	}
}

func TestEmptyStream(t *testing.T) {
	rd, err := NewReader(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Fatalf("err = %v, want io.EOF", err)
	}
	if _, err := rd.Next(); !errors.Is(err, io.EOF) {
		t.Fatal("EOF is not sticky")
	}
}

func TestZeroLengthRIBEntry(t *testing.T) {
	// Peer index, then a RIB record whose entry has attribute length 0,
	// then a healthy state change. The middle record fails with a
	// recoverable ErrBadRecord and the reader keeps going.
	var data []byte
	data = append(data, mustHex(t, hexPeerIndex)...)
	data = append(data, mustHex(t, `00000000 000D 0002 00000010
		00000001 08 0A 0001
		0000 00000000 0000`)...)
	data = append(data, mustHex(t, hexStateChange)...)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = rd.Next()
	if !errors.Is(err, ErrBadRecord) {
		t.Fatalf("err = %v, want ErrBadRecord", err)
	}
	if IsTerminal(err) {
		t.Error("zero-length RIB entry must be recoverable")
	}
	var re *RecordError
	if !errors.As(err, &re) {
		t.Fatal("not a *RecordError")
	}
	if want := int64(len(mustHex(t, hexPeerIndex))); re.Offset != want {
		t.Errorf("offset %d, want %d", re.Offset, want)
	}
	rec, err := rd.Next()
	if err != nil || rec.Kind != KindStateChange {
		t.Fatalf("stream did not continue past bad record: %v %v", rec, err)
	}
	if rec.Span != 3 {
		t.Errorf("span %d, want 3 (bad record still consumed a span)", rec.Span)
	}
}

func TestRIBWithoutPeerIndex(t *testing.T) {
	rd, err := NewReader(bytes.NewReader(mustHex(t, hexRIB)))
	if err != nil {
		t.Fatal(err)
	}
	_, err = rd.Next()
	if !errors.Is(err, ErrNoPeerIndex) || IsTerminal(err) {
		t.Fatalf("err = %v, want recoverable ErrNoPeerIndex", err)
	}
}

func TestRIBBadPeerIndex(t *testing.T) {
	// Entry referencing peer 7 when the table has two peers.
	var data []byte
	data = append(data, mustHex(t, hexPeerIndex)...)
	data = append(data, mustHex(t, `00000000 000D 0002 00000018
		00000001 08 0A 0001
		0007 00000000 0008
		40 01 01 00
		40 03 04 C0000201`)...)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = rd.Next()
	if !errors.Is(err, ErrBadPeerIndex) || IsTerminal(err) {
		t.Fatalf("err = %v, want recoverable ErrBadPeerIndex", err)
	}
}

func TestOneByteReads(t *testing.T) {
	// Every record straddles the read-buffer boundary when the source
	// yields one byte per Read; decoding must be identical.
	data := goldenStream(t)
	rd, err := NewReader(iotest.OneByteReader(bytes.NewReader(data)))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		_, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 7 {
		t.Fatalf("decoded %d records, want 7", n)
	}
}

// ---------------------------------------------------------------------
// Compression framing detection.
// ---------------------------------------------------------------------

func TestGzipStream(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(goldenStream(t)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := readAll(t, buf.Bytes())
	if len(recs) != 7 {
		t.Fatalf("decoded %d records through gzip, want 7", len(recs))
	}
}

// hexGoldenBz2 is the golden stream compressed with bzip2 (generated
// with Python's bz2 module; the Go stdlib only decompresses).
const hexGoldenBz2 = `
	425A68393141592653593067906A000080FDBFFFD6646044408808C880072001
	800010200200014010000100308002B000CC50C529B427A6A66A1A190C807A46
	6A18686434C9A018869A68D0D182449328D1A353D131A0650604C8F5801AAD69
	624284F9D140C517A050AECAA14D34390027F1104E3355E5C92775C1844A7F14
	A3A8C585A9D01A6D05D08C41924518317239C890508868D4320F179255835521
	85241116286C8750C5A70B570993F69816B1AB147668F5C676E553C0C4601A17
	30C7C8194328935E99B6003911B0E64CD20449BB652D768DEC57A092FF177245
	3850903067906A`

func TestBzip2Stream(t *testing.T) {
	recs, _ := readAll(t, mustHex(t, hexGoldenBz2))
	if len(recs) != 7 {
		t.Fatalf("decoded %d records through bzip2, want 7", len(recs))
	}
	if recs[0].Kind != KindPeerIndex || recs[1].Kind != KindRIB {
		t.Errorf("kinds %v %v", recs[0].Kind, recs[1].Kind)
	}
}

// ---------------------------------------------------------------------
// Writer → Reader round-trip property test: seeded random tables and
// update traces survive an encode/decode cycle bit-for-bit.
// ---------------------------------------------------------------------

func randPath(rng *rand.Rand) astypes.ASPath {
	var p astypes.ASPath
	for s, n := 0, 1+rng.Intn(2); s < n; s++ {
		typ := astypes.SegSequence
		if s > 0 && rng.Intn(3) == 0 {
			typ = astypes.SegSet
		}
		asns := make([]astypes.ASN, 1+rng.Intn(4))
		for i := range asns {
			asns[i] = astypes.ASN(1 + rng.Intn(65534))
		}
		p.Segments = append(p.Segments, astypes.Segment{Type: typ, ASNs: asns})
	}
	return p
}

func randComms(rng *rand.Rand) []astypes.Community {
	if rng.Intn(2) == 0 {
		return nil
	}
	out := make([]astypes.Community, 1+rng.Intn(3))
	for i := range out {
		out[i] = astypes.Community(rng.Uint32())
	}
	return out
}

func randPrefix(rng *rand.Rand) astypes.Prefix {
	length := uint8(8 + rng.Intn(25)) // 8..32
	addr := rng.Uint32()
	if length < 32 {
		addr &^= 1<<(32-length) - 1
	}
	return astypes.MustPrefix(addr, length)
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1997))
	t0 := time.Unix(1000000000, 0).UTC()
	for iter := 0; iter < 40; iter++ {
		peers := make([]Peer, 1+rng.Intn(4))
		for i := range peers {
			peers[i] = Peer{
				BGPID: rng.Uint32(),
				IP:    rng.Uint32(),
				AS:    uint32(1 + rng.Intn(65534)),
			}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WritePeerIndex(t0, 0xC0000001, "rt", peers); err != nil {
			t.Fatal(err)
		}

		type ribRec struct {
			seq     uint32
			prefix  astypes.Prefix
			entries []RIBEntry
		}
		var wantRIB []ribRec
		for r, n := 0, 1+rng.Intn(8); r < n; r++ {
			rec := ribRec{seq: uint32(r), prefix: randPrefix(rng)}
			for e, m := 0, 1+rng.Intn(3); e < m; e++ {
				idx := uint16(rng.Intn(len(peers)))
				ent := RIBEntry{
					PeerIndex:  idx,
					PeerAS:     peers[idx].ASN(),
					Originated: rng.Uint32(),
					Origin:     wire.OriginCode(rng.Intn(3)),
					Path:       randPath(rng),
					NextHop:    rng.Uint32(),
				}
				if rng.Intn(2) == 0 {
					ent.HasLocalPref, ent.LocalPref = true, rng.Uint32()
				}
				ent.Communities = randComms(rng)
				rec.entries = append(rec.entries, ent)
			}
			if err := w.WriteRIB(t0, rec.seq, rec.prefix, rec.entries); err != nil {
				t.Fatal(err)
			}
			wantRIB = append(wantRIB, rec)
		}

		var wantUpd []*wire.Update
		for r, n := 0, 1+rng.Intn(4); r < n; r++ {
			u := &wire.Update{}
			for i, m := 0, rng.Intn(3); i < m; i++ {
				u.Withdrawn = append(u.Withdrawn, randPrefix(rng))
			}
			for i, m := 0, 1+rng.Intn(3); i < m; i++ {
				u.NLRI = append(u.NLRI, randPrefix(rng))
			}
			u.Attrs.HasOrigin = true
			u.Attrs.Origin = wire.OriginCode(rng.Intn(3))
			u.Attrs.ASPath = randPath(rng)
			u.Attrs.HasNextHop = true
			u.Attrs.NextHop = rng.Uint32()
			if rng.Intn(2) == 0 {
				u.Attrs.HasLocalPref, u.Attrs.LocalPref = true, rng.Uint32()
			}
			u.Attrs.Communities = randComms(rng)
			peerAS := astypes.ASN(1 + rng.Intn(65534))
			var err error
			if rng.Intn(2) == 0 {
				err = w.WriteUpdate(t0, peerAS, 6447, rng.Uint32(), rng.Uint32(), u)
			} else {
				err = w.WriteUpdateAS4(t0, uint32(peerAS), 6447, rng.Uint32(), rng.Uint32(), u)
			}
			if err != nil {
				t.Fatal(err)
			}
			wantUpd = append(wantUpd, u)
		}

		recs, _ := readAll(t, buf.Bytes())
		if len(recs) != 1+len(wantRIB)+len(wantUpd) {
			t.Fatalf("iter %d: decoded %d records, want %d", iter, len(recs), 1+len(wantRIB)+len(wantUpd))
		}
		if !reflect.DeepEqual(recs[0].Peers, peers) {
			t.Fatalf("iter %d: peers\n got %+v\nwant %+v", iter, recs[0].Peers, peers)
		}
		for i, want := range wantRIB {
			got := recs[1+i]
			if got.Seq != want.seq || got.Prefix != want.prefix {
				t.Fatalf("iter %d rib %d: seq/prefix %d %s", iter, i, got.Seq, got.Prefix)
			}
			if !reflect.DeepEqual(got.Entries, want.entries) {
				t.Fatalf("iter %d rib %d entries:\n got %+v\nwant %+v", iter, i, got.Entries, want.entries)
			}
		}
		for i, want := range wantUpd {
			got := recs[1+len(wantRIB)+i].Update
			if got == nil {
				t.Fatalf("iter %d update %d: no update", iter, i)
			}
			if !updateEqual(got, want) {
				t.Fatalf("iter %d update %d:\n got %+v\nwant %+v", iter, i, got, want)
			}
		}
	}
}

// updateEqual compares updates treating nil and empty prefix slices as
// the same (the decoder reuses scratch, so zero-length comes back
// non-nil).
func updateEqual(a, b *wire.Update) bool {
	return prefixesEqual(a.Withdrawn, b.Withdrawn) &&
		prefixesEqual(a.NLRI, b.NLRI) &&
		reflect.DeepEqual(a.Attrs, b.Attrs)
}

func prefixesEqual(a, b []astypes.Prefix) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Synthetic full-table load: 10k prefixes through the Writer, read
// back with exact accounting.
// ---------------------------------------------------------------------

// writeSyntheticTable emits a peer index plus n RIB records and returns
// the encoded archive.
func writeSyntheticTable(tb testing.TB, n int) []byte {
	tb.Helper()
	t0 := time.Unix(1000000000, 0).UTC()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	peers := []Peer{
		{BGPID: 0x01010101, IP: 0xC0000201, AS: 65001},
		{BGPID: 0x02020202, IP: 0xC0000202, AS: 65002},
	}
	if err := w.WritePeerIndex(t0, 0x0A000001, "synthetic", peers); err != nil {
		tb.Fatal(err)
	}
	entries := make([]RIBEntry, 2)
	for i := 0; i < n; i++ {
		// March through /24s: 10.0.0.0/24, 10.0.1.0/24, ...
		prefix := astypes.MustPrefix(0x0A000000+uint32(i)<<8, 24)
		for e := range entries {
			entries[e] = RIBEntry{
				PeerIndex:  uint16(e),
				PeerAS:     peers[e].ASN(),
				Originated: uint32(i),
				Origin:     wire.OriginIGP,
				Path: astypes.ASPath{Segments: []astypes.Segment{{
					Type: astypes.SegSequence,
					ASNs: []astypes.ASN{peers[e].ASN(), astypes.ASN(64000 + i%100)},
				}}},
				NextHop: peers[e].IP,
			}
		}
		if err := w.WriteRIB(t0, uint32(i), prefix, entries); err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSynthetic10kTable(t *testing.T) {
	const n = 10000
	data := writeSyntheticTable(t, n)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var prefixes, entries int
	for {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Kind == KindRIB {
			prefixes++
			entries += len(rec.Entries)
		}
	}
	if prefixes != n || entries != 2*n {
		t.Fatalf("prefixes %d entries %d, want %d, %d", prefixes, entries, n, 2*n)
	}
	s := rd.Stats()
	if s.RIBPrefixes != n || s.RIBEntries != 2*n || s.Records != n+1 {
		t.Errorf("stats %+v", s)
	}
}

// ---------------------------------------------------------------------
// Steady-state allocation guard: after warm-up, Next performs zero
// heap allocations per record.
// ---------------------------------------------------------------------

// loopReader replays data forever.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	if l.off == len(l.data) {
		l.off = 0
	}
	n := copy(p, l.data[l.off:])
	l.off += n
	return n, nil
}

func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	// One peer index, then an endless loop of a RIB record, an update
	// and a state change: the steady-state shape of a full-table load.
	t0 := time.Unix(1000000000, 0).UTC()
	var head, loop bytes.Buffer
	w := NewWriter(&head)
	peers := []Peer{{BGPID: 1, IP: 0xC0000201, AS: 65001}}
	if err := w.WritePeerIndex(t0, 1, "alloc", peers); err != nil {
		t.Fatal(err)
	}
	w = NewWriter(&loop)
	ent := []RIBEntry{{
		PeerAS: 65001, Origin: wire.OriginIGP,
		Path: astypes.ASPath{Segments: []astypes.Segment{{
			Type: astypes.SegSequence, ASNs: []astypes.ASN{65001, 64512},
		}}},
		NextHop:     0xC0000201,
		Communities: []astypes.Community{0xFDE90001},
	}}
	if err := w.WriteRIB(t0, 1, astypes.MustPrefix(0x0A000000, 24), ent); err != nil {
		t.Fatal(err)
	}
	u := &wire.Update{NLRI: []astypes.Prefix{astypes.MustPrefix(0x0A010000, 24)}}
	u.Attrs.HasOrigin, u.Attrs.HasNextHop = true, true
	u.Attrs.NextHop = 0xC0000201
	u.Attrs.ASPath = astypes.NewSeqPath(65001, 64512)
	if err := w.WriteUpdate(t0, 65001, 6447, 0xC0000201, 0xC0000202, u); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStateChange(t0, 65001, 6447, 0xC0000201, 0xC0000202, 6, 1); err != nil {
		t.Fatal(err)
	}
	const cycle = 3 // records per loop

	rd, err := NewReader(io.MultiReader(bytes.NewReader(head.Bytes()), &loopReader{data: loop.Bytes()}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200*cycle; i++ { // warm arenas and record buffer
		if _, err := rd.Next(); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun rounds down to whole allocations per run, so each run
	// reads one full cycle: an allocation in any one record kind shows.
	var seen [KindStateChange + 1]bool
	avg := testing.AllocsPerRun(500, func() {
		for i := 0; i < cycle; i++ {
			rec, err := rd.Next()
			if err != nil {
				t.Fatal(err)
			}
			seen[rec.Kind] = true
		}
	})
	if !seen[KindRIB] || !seen[KindMessage] || !seen[KindStateChange] {
		t.Fatalf("loop decoded record kinds %v, want RIB, message and state change", seen)
	}
	if avg != 0 {
		t.Fatalf("steady-state Next allocates %.2f objects per %d-record cycle, want 0", avg, cycle)
	}
}
