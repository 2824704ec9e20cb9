package routegen

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/mrt"
)

// readMRTDump reads an archive of the shape WriteMRT writes back into a
// Dump: the first record's timestamp is the date (and fixes the day),
// and every RIB record contributes its one entry. A reader error, an
// empty stream, a record that is neither a peer index nor a RIB, a
// record stamped with another time, or a RIB record without exactly one
// entry fails the read.
func readMRTDump(r io.Reader) (*Dump, error) {
	rd, err := mrt.NewReader(r)
	if err != nil {
		return nil, err
	}
	d := new(Dump)
	for n := 0; ; n++ {
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) && n > 0 {
			return d, nil
		}
		if errors.Is(err, io.EOF) {
			return nil, io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if n == 0 {
			d.Date, d.Day = rec.Time, daysSinceStart(rec.Time)
		}
		switch {
		case !rec.Time.Equal(d.Date):
			return nil, fmt.Errorf("record %d stamped %v, want %v", rec.Span, rec.Time, d.Date)
		case rec.Kind == mrt.KindPeerIndex:
		case rec.Kind != mrt.KindRIB:
			return nil, fmt.Errorf("record %d is a %v record", rec.Span, rec.Kind)
		case len(rec.Entries) != 1:
			return nil, fmt.Errorf("record %d has %d entries", rec.Span, len(rec.Entries))
		default:
			e := rec.Entries[0]
			d.Entries = append(d.Entries, Entry{
				Prefix:      rec.Prefix,
				Path:        e.Path.Clone(),
				Communities: slices.Clone(e.Communities),
			})
		}
	}
}

// dumpDiff describes the first difference in day, date or (prefix,
// path, communities) sequence between got and want, or returns nil.
func dumpDiff(got, want *Dump) error {
	if got.Day != want.Day || !got.Date.Equal(want.Date) {
		return fmt.Errorf("header day=%d date=%v, want day=%d date=%v", got.Day, got.Date, want.Day, want.Date)
	}
	if len(got.Entries) != len(want.Entries) {
		return fmt.Errorf("%d entries, want %d", len(got.Entries), len(want.Entries))
	}
	for i, w := range want.Entries {
		g := got.Entries[i]
		if g.Prefix != w.Prefix || !g.Path.Equal(w.Path) || !slices.Equal(g.Communities, w.Communities) {
			return fmt.Errorf("entry %d = %+v, want %+v", i, g, w)
		}
	}
	return nil
}

// recordEnds returns the offset just past each record of an archive.
func recordEnds(archive []byte) []int {
	var ends []int
	for off := 0; off+12 <= len(archive); {
		off += 12 + int(binary.BigEndian.Uint32(archive[off+8:off+12]))
		ends = append(ends, off)
	}
	return ends
}

// TestBinaryRoundTrip: a dump written with WriteMRT reads back through
// mrt.Reader as the same (prefix, path, communities) sequence, every
// record stamped with the dump's date, one entry per RIB record.
func TestBinaryRoundTrip(t *testing.T) {
	g, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.DumpForDay(50)
	if err != nil {
		t.Fatal(err)
	}
	// Attach MOAS lists the way announcements carry them, and end one
	// path in an AS_SET.
	for i := 0; i < len(d.Entries); i += 7 {
		d.Entries[i].Communities = core.NewList(d.Entries[i].Origin(), 226).Communities()
	}
	p := d.Entries[1].Path.Clone()
	p.Segments = append(p.Segments, astypes.Segment{Type: astypes.SegSet, ASNs: []astypes.ASN{4006, 4544}})
	d.Entries[1].Path = p

	back, err := readMRTDump(bytes.NewReader(encodeDump(t, d)))
	if err != nil {
		t.Fatal(err)
	}
	if err := dumpDiff(back, d); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryRejectsCorruption: a WriteMRT archive cut inside any record,
// or with an absurd record length, is an error, never a panic and never
// a silently shorter dump.
func TestBinaryRejectsCorruption(t *testing.T) {
	g, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := g.DumpForDay(3)
	if err != nil {
		t.Fatal(err)
	}
	valid := encodeDump(t, d)
	ends := recordEnds(valid)
	if ends[len(ends)-1] != len(valid) || len(ends) != len(d.Entries)+1 {
		t.Fatalf("archive of %d bytes frames %d records ending at %d", len(valid), len(ends), ends[len(ends)-1])
	}
	for cut := 1; cut < len(valid); cut += 7 {
		if slices.Contains(ends, cut) {
			continue // a cut between records leaves a valid, shorter archive
		}
		_, err := readMRTDump(bytes.NewReader(valid[:cut]))
		if !errors.Is(err, mrt.ErrTruncatedHeader) && !errors.Is(err, mrt.ErrTruncatedBody) {
			t.Fatalf("truncated at %d: err = %v", cut, err)
		}
	}
	bad := slices.Clone(valid)
	binary.BigEndian.PutUint32(bad[ends[0]+8:], 0xffffffff)
	if _, err := readMRTDump(bytes.NewReader(bad)); !errors.Is(err, mrt.ErrBadLength) {
		t.Errorf("absurd record length: err = %v", err)
	}
}

// TestReadDumpErrors: each structural fault in a one-entry archive is
// reported as its reader error.
func TestReadDumpErrors(t *testing.T) {
	d := &Dump{Date: StudyStart, Entries: []Entry{{
		Prefix: astypes.MustPrefix(0x0a000000, 8),
		Path:   astypes.NewSeqPath(6447, 701, 42),
	}}}
	valid := encodeDump(t, d)
	rib := recordEnds(valid)[0] // offset of the RIB record
	// The RIB body: sequence(4) prefix length(1) prefix(1) entry count(2)
	// peer index(2)...
	withByte := func(off int, v byte) []byte {
		b := slices.Clone(valid)
		b[off] = v
		return b
	}
	cases := []struct {
		name string
		give []byte
		want error
	}{
		{"empty", nil, io.ErrUnexpectedEOF},
		{"garbage", []byte("garbage\n"), mrt.ErrTruncatedHeader},
		{"header only", valid[:12], mrt.ErrTruncatedBody},
		{"no peer index", valid[rib:], mrt.ErrNoPeerIndex},
		{"prefix length 33", withByte(rib+12+4, 33), mrt.ErrBadRecord},
		{"unknown peer", withByte(rib+12+9, 1), mrt.ErrBadPeerIndex},
	}
	for _, c := range cases {
		if _, err := readMRTDump(bytes.NewReader(c.give)); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
	if _, err := readMRTDump(bytes.NewReader(valid)); err != nil {
		t.Errorf("unaltered archive: %v", err)
	}
}

// FuzzReadBinaryDump: reading an MRT dump archive must never panic, and
// any archive of WriteMRT's shape must re-encode with WriteMRT and read
// back as the same dump.
func FuzzReadBinaryDump(f *testing.F) {
	g, err := New(smallConfig())
	if err != nil {
		f.Fatal(err)
	}
	for _, day := range []int{0, 50, 80} {
		d, err := g.DumpForDay(day)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteMRT(&buf, d); err != nil {
			f.Fatal(err)
		}
		seed := buf.Bytes()
		f.Add(seed)
		for i := 0; i < len(seed); i += 11 {
			mut := slices.Clone(seed)
			mut[i] ^= 0x5a
			f.Add(mut)
		}
		f.Add(seed[:len(seed)/2])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := readMRTDump(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMRT(&buf, d); err != nil {
			t.Fatalf("accepted dump failed to re-encode: %v", err)
		}
		back, err := readMRTDump(&buf)
		if err != nil {
			t.Fatalf("re-encoded dump failed to parse: %v", err)
		}
		if err := dumpDiff(back, d); err != nil {
			t.Fatalf("MRT round trip not stable: %v", err)
		}
	})
}
