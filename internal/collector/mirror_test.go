package collector

import (
	"encoding/binary"
	"reflect"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// fuzzRoute reads a route from fuzz input: a segment count (mod 8);
// per segment a type octet, a 2-octet ASN count (mod 1024) and that
// many 4-octet ASNs, as far as the input lasts; then every remaining
// whole 4 octets as a community.
func fuzzRoute(data []byte) (astypes.ASPath, []astypes.Community) {
	var path astypes.ASPath
	if len(data) == 0 {
		return path, nil
	}
	nsegs := int(data[0] % 8)
	data = data[1:]
	for k := 0; k < nsegs && len(data) >= 3; k++ {
		seg := astypes.Segment{Type: astypes.SegmentType(data[0])}
		n := int(binary.BigEndian.Uint16(data[1:]) % 1024)
		data = data[3:]
		for ; n > 0 && len(data) >= 4; n-- {
			seg.ASNs = append(seg.ASNs, astypes.ASN(binary.BigEndian.Uint32(data)))
			data = data[4:]
		}
		path.Segments = append(path.Segments, seg)
	}
	var comms []astypes.Community
	for ; len(data) >= 4; data = data[4:] {
		comms = append(comms, astypes.Community(binary.BigEndian.Uint32(data)))
	}
	return path, comms
}

// fuzzSeed is the fuzzRoute input that reads back as (path, comms).
func fuzzSeed(path astypes.ASPath, comms ...astypes.Community) []byte {
	out := []byte{byte(len(path.Segments))}
	for _, seg := range path.Segments {
		out = append(out, byte(seg.Type))
		out = binary.BigEndian.AppendUint16(out, uint16(len(seg.ASNs)))
		for _, a := range seg.ASNs {
			out = binary.BigEndian.AppendUint32(out, uint32(a))
		}
	}
	for _, c := range comms {
		out = binary.BigEndian.AppendUint32(out, uint32(c))
	}
	return out
}

// FuzzMirrorRoundTrip: whatever path and communities an UPDATE
// carries, Snapshot and RoutesFrom give back what a deep copy would
// (ASPath.Clone, and the communities copied with none as nil), for
// every NLRI of the UPDATE, after a later UPDATE has reused the
// collector's packing scratch.
func FuzzMirrorRoundTrip(f *testing.F) {
	long := make([]astypes.ASN, 300)
	for i := range long {
		long[i] = astypes.ASN(64512 + i)
	}
	seq := func(asns ...astypes.ASN) astypes.Segment {
		return astypes.Segment{Type: astypes.SegSequence, ASNs: asns}
	}
	set := func(asns ...astypes.ASN) astypes.Segment { return astypes.Segment{Type: astypes.SegSet, ASNs: asns} }
	for _, s := range []struct {
		path  astypes.ASPath
		comms []astypes.Community
	}{
		{},
		{path: astypes.NewSeqPath(701, 1239, 4), comms: []astypes.Community{astypes.NewCommunity(4, 0xffde)}},
		{path: astypes.ASPath{Segments: []astypes.Segment{seq(701, 3356), set(4, 226, 52)}}},
		{path: astypes.ASPath{Segments: []astypes.Segment{seq(), set(), seq(4)}}},
		{path: astypes.ASPath{Segments: []astypes.Segment{seq(long...)}}},
		{path: astypes.NewSeqPath(4200000000, 70000, 23456), comms: []astypes.Community{0xffffffff, 0}},
	} {
		f.Add(fuzzSeed(s.path, s.comms...))
	}
	p1, p2, p3 := astypes.MustPrefix(0x0a000000, 8), astypes.MustPrefix(0x83b30000, 16), astypes.MustPrefix(0xc0000200, 24)
	f.Fuzz(func(t *testing.T, data []byte) {
		path, comms := fuzzRoute(data)
		c := New(Config{})
		u := &wire.Update{NLRI: []astypes.Prefix{p1, p2}}
		u.Attrs.ASPath = path
		u.Attrs.Communities = comms
		c.Inject(4, u)
		c.Inject(4, &wire.Update{NLRI: []astypes.Prefix{p3}})

		wantPath, wantComms := path.Clone(), append([]astypes.Community(nil), comms...)
		d := c.Snapshot(time.Time{})
		if len(d.Entries) != 3 {
			t.Fatalf("snapshot has %d entries, want 3", len(d.Entries))
		}
		for _, e := range d.Entries[:2] {
			if !reflect.DeepEqual(e.Path, wantPath) || !reflect.DeepEqual(e.Communities, wantComms) {
				t.Fatalf("%s: snapshot gives %#v %#v, want %#v %#v", e.Prefix, e.Path, e.Communities, wantPath, wantComms)
			}
		}
		if e := d.Entries[2]; !reflect.DeepEqual(e.Path, astypes.ASPath{}) || e.Communities != nil {
			t.Fatalf("%s: snapshot gives %#v %#v, want the empty route", e.Prefix, e.Path, e.Communities)
		}
		if got := c.RoutesFrom(4)[p1]; !reflect.DeepEqual(got, wantPath) {
			t.Fatalf("RoutesFrom gives %#v, want %#v", got, wantPath)
		}
	})
}
