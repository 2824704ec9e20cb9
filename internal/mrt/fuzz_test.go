package mrt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// timeZero is the fixed timestamp fuzzed records carry.
var timeZero = time.Unix(0, 0).UTC()

// FuzzMRTDecode feeds arbitrary bytes through the reader. Invariants:
// no panic, terminal errors are sticky, every successful record
// advances both the span and the stream offset, and stats never go
// backwards. Seeds are the golden fixtures plus their truncations and
// a few corruptions of each.
func FuzzMRTDecode(f *testing.F) {
	seeds := [][]byte{
		mustHex(f, hexPeerIndex),
		mustHex(f, hexRIB),
		mustHex(f, hexUpdateAS2),
		mustHex(f, hexUpdateAS4),
		mustHex(f, hexStateChange),
		mustHex(f, hexUpdateET),
		mustHex(f, hexSkipped),
		mustHex(f, hexTruncHeader),
		mustHex(f, hexTruncBody),
		goldenStream(f),
	}
	for _, s := range seeds {
		f.Add(s)
		if len(s) > headerLen {
			// Flip a body byte and truncate mid-body.
			c := append([]byte(nil), s...)
			c[headerLen] ^= 0xff
			f.Add(c)
			f.Add(s[:headerLen+1])
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			return // corrupt gzip/bzip2 framing detected at construction
		}
		var (
			lastSpan   uint64
			lastOffset int64 = -1
			prev       Stats
		)
		for i := 0; i <= len(data)+1; i++ {
			rec, err := rd.Next()
			if err != nil {
				if errors.Is(err, io.EOF) {
					return
				}
				if IsTerminal(err) {
					// Sticky: one more call must return the identical error.
					if _, err2 := rd.Next(); err2 != err {
						t.Fatalf("terminal error not sticky: %v then %v", err, err2)
					}
					return
				}
				continue // recoverable body error; stream goes on
			}
			if rec.Span <= lastSpan {
				t.Fatalf("span did not advance: %d after %d", rec.Span, lastSpan)
			}
			if rec.Offset <= lastOffset {
				t.Fatalf("offset did not advance: %d after %d", rec.Offset, lastOffset)
			}
			lastSpan, lastOffset = rec.Span, rec.Offset
			s := rd.Stats()
			if s.Records < prev.Records || s.RIBEntries < prev.RIBEntries || s.Updates < prev.Updates {
				t.Fatalf("stats went backwards: %+v after %+v", s, prev)
			}
			prev = s
		}
		t.Fatal("reader did not terminate after len(data)+1 records")
	})
}

// FuzzWriterRoundTrip is the encode side: any RIB entry the Writer
// accepts, and the same route as a 2-octet and a 4-octet UPDATE, must
// decode back. The fuzzer mutates the raw knobs; pathSpec is read five
// bytes per AS (a control byte whose bit 0 opens a new segment and bit
// 1 makes it an AS_SET, then the 4-octet AS), comms four bytes per
// community.
func FuzzWriterRoundTrip(f *testing.F) {
	f.Add(uint32(1), uint32(0x0A000000), uint8(24), uint16(65001), uint32(0xC0000201),
		[]byte{0, 0, 0, 0xFD, 0xE9}, []byte(nil), false, uint32(0))
	f.Add(uint32(9), uint32(0), uint8(0), uint16(1), uint32(1), []byte(nil), []byte(nil), false, uint32(0))
	f.Add(uint32(5), uint32(0xC0000200), uint8(24), uint16(701), uint32(7),
		[]byte{0, 0, 0, 0x02, 0xBD, 0, 0, 0, 0x04, 0xD7, 3, 0, 3, 0, 7, 0, 0, 0, 0x1B, 0x1B},
		[]byte{0x02, 0xBD, 0, 0x64, 0xFF, 0xFF, 0xFF, 0x01}, true, uint32(100))
	f.Fuzz(func(t *testing.T, seq, addr uint32, plen uint8, as uint16, nexthop uint32,
		pathSpec, comms []byte, hasLocalPref bool, localPref uint32) {
		if plen > 32 || as == 0 || len(pathSpec) > 5*200 {
			return
		}
		if plen < 32 {
			addr &^= 1<<(32-plen) - 1
		}
		prefix, err := astypes.NewPrefix(addr, plen)
		if err != nil {
			return
		}
		path, narrowed := fuzzPath(pathSpec)
		var communities []astypes.Community
		for ; len(comms) >= 4; comms = comms[4:] {
			communities = append(communities, astypes.Community(binary.BigEndian.Uint32(comms)))
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		peers := []Peer{{BGPID: 1, IP: 2, AS: uint32(as)}}
		if err := w.WritePeerIndex(timeZero, 1, "fuzz", peers); err != nil {
			t.Fatal(err)
		}
		entry := RIBEntry{
			PeerAS:       peers[0].ASN(),
			Origin:       wire.OriginIGP,
			Path:         path,
			NextHop:      nexthop,
			HasLocalPref: hasLocalPref,
			Communities:  communities,
		}
		if hasLocalPref {
			entry.LocalPref = localPref
		}
		if err := w.WriteRIB(timeZero, seq, prefix, []RIBEntry{entry}); err != nil {
			t.Fatal(err)
		}
		u := &wire.Update{NLRI: []astypes.Prefix{prefix}}
		u.Attrs = wire.PathAttrs{
			HasOrigin:    true,
			ASPath:       path,
			HasNextHop:   true,
			NextHop:      nexthop,
			HasLocalPref: hasLocalPref,
			LocalPref:    entry.LocalPref,
			Communities:  communities,
		}
		if err := w.WriteUpdate(timeZero, astypes.ASN(as), 6447, 1, 2, u); err != nil {
			t.Fatal(err)
		}
		if err := w.WriteUpdateAS4(timeZero, uint32(as), 6447, 1, 2, u); err != nil {
			t.Fatal(err)
		}

		recs, _ := readAll(t, buf.Bytes())
		if len(recs) != 4 {
			t.Fatalf("decoded %d records, want 4", len(recs))
		}
		entry.Path = narrowed
		want := copyRecord(&Record{Entries: []RIBEntry{entry}}).Entries
		if rec := recs[1]; rec.Seq != seq || rec.Prefix != prefix || !reflect.DeepEqual(rec.Entries, want) {
			t.Fatalf("RIB round trip:\n got %+v\nwant %+v", rec.Entries, want)
		}
		u.Attrs.ASPath = narrowed
		for _, rec := range recs[2:] {
			if rec.Update == nil || !updateEqual(rec.Update, copyRecord(&Record{Update: u}).Update) {
				t.Fatalf("subtype %d UPDATE round trip:\n got %+v\nwant %+v", rec.Subtype, rec.Update, u)
			}
		}
	})
}

// fuzzPath builds an AS path from a FuzzWriterRoundTrip path spec, and
// the same path as the reader returns it: AS numbers above 65535
// narrowed to AS_TRANS.
func fuzzPath(spec []byte) (path, narrowed astypes.ASPath) {
	for ; len(spec) >= 5; spec = spec[5:] {
		asn := astypes.ASN(binary.BigEndian.Uint32(spec[1:5]))
		n := len(path.Segments)
		if n == 0 || spec[0]&1 != 0 || len(path.Segments[n-1].ASNs) == 255 {
			typ := astypes.SegSequence
			if spec[0]&2 != 0 {
				typ = astypes.SegSet
			}
			path.Segments = append(path.Segments, astypes.Segment{Type: typ})
			narrowed.Segments = append(narrowed.Segments, astypes.Segment{Type: typ})
			n++
		}
		path.Segments[n-1].ASNs = append(path.Segments[n-1].ASNs, asn)
		if asn > astypes.Max2Octet {
			asn = ASTrans
		}
		narrowed.Segments[n-1].ASNs = append(narrowed.Segments[n-1].ASNs, asn)
	}
	return path, narrowed
}
