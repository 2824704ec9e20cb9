package mrt

import (
	"bytes"
	"io"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// goldenUpdate is the UPDATE the message fixtures carry: 192.0.2.0/24
// with ORIGIN IGP, NEXT_HOP 10.0.0.1 and a sequence path.
func goldenUpdate(path ...astypes.ASN) *wire.Update {
	u := &wire.Update{NLRI: []astypes.Prefix{astypes.MustPrefix(0xC0000200, 24)}}
	u.Attrs.HasOrigin, u.Attrs.Origin = true, wire.OriginIGP
	u.Attrs.HasNextHop, u.Attrs.NextHop = true, 0x0A000001
	u.Attrs.ASPath = astypes.NewSeqPath(path...)
	return u
}

// TestWriterGoldens: each typed writer reproduces its hand-assembled
// fixture byte for byte. The reader and writer share one codec, so a
// round trip alone cannot catch an encoder bug the decoder mirrors.
func TestWriterGoldens(t *testing.T) {
	at := func(sec int64) time.Time { return time.Unix(1000000000+sec, 0).UTC() }
	cases := []struct {
		name  string
		hex   string
		write func(*Writer) error
	}{
		{"peer-index", hexPeerIndex, func(w *Writer) error {
			return w.WritePeerIndex(at(0), 0x0A000001, "view", []Peer{
				{BGPID: 0x01010101, IP: 0xC0000201, AS: 65001},
				{BGPID: 0x02020202, IP: 0xC0000202, AS: 196615},
			})
		}},
		{"rib", hexRIB, func(w *Writer) error {
			return w.WriteRIB(at(1), 5, astypes.MustPrefix(0x0A000000, 8), []RIBEntry{{
				PeerIndex:  1,
				Originated: 100,
				Origin:     wire.OriginIGP,
				Path:       astypes.NewSeqPath(196615, 65001),
				NextHop:    0xC0000201,
			}})
		}},
		{"update-as2", hexUpdateAS2, func(w *Writer) error {
			return w.WriteUpdate(at(2), 65001, 6502, 0xC0000201, 0xC0000202, goldenUpdate(65001, 65002))
		}},
		{"update-as4", hexUpdateAS4, func(w *Writer) error {
			return w.WriteUpdateAS4(at(3), 196615, 6502, 0xC0000201, 0xC0000202, goldenUpdate(196615, 65002))
		}},
		{"state-change", hexStateChange, func(w *Writer) error {
			return w.WriteStateChange(at(4), 65001, 6502, 0xC0000201, 0xC0000202, 5, 6)
		}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := c.write(NewWriter(&buf)); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if want := mustHex(t, c.hex); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s:\n got %x\nwant %x", c.name, buf.Bytes(), want)
		}
	}
}

// TestWriterNarrowsTwoOctetAS: the 2-octet peer header of MESSAGE and
// STATE_CHANGE records carries AS_TRANS for an AS above 65535, not the
// AS's low 16 bits.
func TestWriterNarrowsTwoOctetAS(t *testing.T) {
	t0 := time.Unix(1000000000, 0).UTC()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteUpdate(t0, 196615, 4200000000, 1, 2, goldenUpdate(65001)); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteStateChange(t0, 196615, 4200000000, 1, 2, 5, 6); err != nil {
		t.Fatal(err)
	}
	recs, _ := readAll(t, buf.Bytes())
	if len(recs) != 2 {
		t.Fatalf("decoded %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.PeerAS != ASTrans || r.LocalAS != ASTrans {
			t.Errorf("%v: peer %d local %d, want AS_TRANS for both", r.Kind, r.PeerAS, r.LocalAS)
		}
	}
}

// TestWriterSteadyStateAllocFree: once its buffers are warm, the Writer
// encodes RIB records and both UPDATE widths without allocating.
func TestWriterSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	t0 := time.Unix(1000000000, 0).UTC()
	w := NewWriter(io.Discard)
	prefix := astypes.MustPrefix(0x0A000000, 24)
	entries := []RIBEntry{
		{PeerIndex: 0, Origin: wire.OriginIGP, Path: astypes.NewSeqPath(65001, 64512), NextHop: 1,
			Communities: []astypes.Community{0xFDE90001}},
		{PeerIndex: 1, Origin: wire.OriginIGP, Path: astypes.NewSeqPath(65002, 196615), NextHop: 2,
			HasLocalPref: true, LocalPref: 100},
	}
	u := goldenUpdate(65001, 64512)
	u.Attrs.Communities = []astypes.Community{0xFDE90064}
	for _, c := range []struct {
		name  string
		write func() error
	}{
		{"WriteRIB", func() error { return w.WriteRIB(t0, 1, prefix, entries) }},
		{"WriteUpdate", func() error { return w.WriteUpdate(t0, 65001, 6447, 1, 2, u) }},
		{"WriteUpdateAS4", func() error { return w.WriteUpdateAS4(t0, 196615, 6447, 1, 2, u) }},
	} {
		if err := c.write(); err != nil { // warm the scratch buffers
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(200, func() {
			if err := c.write(); err != nil {
				t.Fatal(err)
			}
		}); avg != 0 {
			t.Errorf("%s allocates %.2f objects per record, want 0", c.name, avg)
		}
	}
}
