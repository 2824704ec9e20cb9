package mrt

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// BenchmarkMRTColdLoad measures a full cold table load: a fresh Reader
// decoding a synthetic ≥100k-prefix TABLE_DUMP_V2 archive end to end,
// the shape of loading a RouteViews snapshot at startup.
func BenchmarkMRTColdLoad(b *testing.B) {
	const prefixes = 100000
	data := writeSyntheticTable(b, prefixes)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := rd.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		if s := rd.Stats(); s.RIBPrefixes != prefixes {
			b.Fatalf("decoded %d prefixes, want %d", s.RIBPrefixes, prefixes)
		}
	}
	b.ReportMetric(float64(prefixes)*float64(b.N)/b.Elapsed().Seconds(), "prefixes/s")
}

// BenchmarkMRTChurn measures the steady-state update-trace path: one
// warmed Reader consuming an endless stream of BGP4MP updates and RIB
// refreshes. The allocs/op column should read 0
// (TestSteadyStateAllocFree enforces the exact zero).
func BenchmarkMRTChurn(b *testing.B) {
	t0 := time.Unix(1000000000, 0).UTC()
	var head, loop bytes.Buffer
	w := NewWriter(&head)
	peers := []Peer{{BGPID: 1, IP: 0xC0000201, AS: 65001}}
	if err := w.WritePeerIndex(t0, 1, "churn", peers); err != nil {
		b.Fatal(err)
	}
	w = NewWriter(&loop)
	ent := []RIBEntry{{
		PeerAS: 65001, Origin: wire.OriginIGP,
		Path:    astypes.NewSeqPath(65001, 64512, 64513),
		NextHop: 0xC0000201,
	}}
	if err := w.WriteRIB(t0, 1, astypes.MustPrefix(0x0A000000, 24), ent); err != nil {
		b.Fatal(err)
	}
	u := &wire.Update{NLRI: []astypes.Prefix{astypes.MustPrefix(0x0A010000, 24)}}
	u.Attrs.HasOrigin, u.Attrs.HasNextHop = true, true
	u.Attrs.NextHop = 0xC0000201
	u.Attrs.ASPath = astypes.NewSeqPath(65001, 64512)
	u.Attrs.Communities = []astypes.Community{0xFDE90064}
	if err := w.WriteUpdate(t0, 65001, 6447, 0xC0000201, 0xC0000202, u); err != nil {
		b.Fatal(err)
	}

	rd, err := NewReader(io.MultiReader(bytes.NewReader(head.Bytes()), &loopReader{data: loop.Bytes()}))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 100; i++ { // warm the arenas
		if _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Next(); err != nil {
			b.Fatal(err)
		}
	}
}
