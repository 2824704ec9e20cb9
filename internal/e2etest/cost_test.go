package e2etest

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/astypes"
	"repro/internal/collector"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/mrt/rislive"
	"repro/internal/wire"
)

var update = flag.Bool("update", false, "rewrite golden files")

// costRecords is how many records one measured replay holds. Costs are
// the difference between replays of 2·costRecords and costRecords
// records, divided by costRecords, so what a replay pays once (the
// reader, the scratch update) cancels out.
const costRecords = 1024

// costArchive is an MRT archive of n BGP4MP updates, each announcing
// one prefix of 10.0.0.0/8 (the ith record the ith /24) over a 4-AS
// path with one community.
func costArchive(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	u := &wire.Update{NLRI: make([]astypes.Prefix, 1)}
	u.Attrs.HasOrigin = true
	u.Attrs.HasNextHop = true
	u.Attrs.NextHop = 0xC0000201
	u.Attrs.ASPath = astypes.NewSeqPath(701, 1239, 3356, 4)
	u.Attrs.Communities = []astypes.Community{astypes.NewCommunity(701, 666)}
	at := time.Unix(1000000000, 0).UTC()
	for i := 0; i < n; i++ {
		u.NLRI[0] = astypes.MustPrefix(0x0a000000|uint32(i)<<8, 24)
		if err := w.WriteUpdate(at, 701, collector.CollectorASN, 0xC0000201, 0xC0000202, u); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// costRIBArchive is an MRT table dump of n TABLE_DUMP_V2 RIB records,
// the ith for the ith /24 of 10.0.0.0/8, each with one entry from each
// of two peers: 4-AS paths to the same origin, one community.
func costRIBArchive(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	at := time.Unix(1000000000, 0).UTC()
	peers := []mrt.Peer{{BGPID: 1, IP: 0xC0000201, AS: 701}, {BGPID: 2, IP: 0xC0000203, AS: 1239}}
	if err := w.WritePeerIndex(at, 0xC0000202, "cost", peers); err != nil {
		t.Fatal(err)
	}
	comms := []astypes.Community{astypes.NewCommunity(701, 666)}
	entries := []mrt.RIBEntry{
		{PeerIndex: 0, Path: astypes.NewSeqPath(701, 1239, 3356, 4), NextHop: 0xC0000201, Communities: comms},
		{PeerIndex: 1, Path: astypes.NewSeqPath(1239, 174, 3356, 4), NextHop: 0xC0000203, Communities: comms},
	}
	for i := 0; i < n; i++ {
		if err := w.WriteRIB(at, uint32(i), astypes.MustPrefix(0x0a000000|uint32(i)<<8, 24), entries); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// costRISFeed is a RIS-Live feed of n NDJSON lines, each one UPDATE
// from peer AS 701 announcing one prefix of 10.0.0.0/8 (the ith line
// the ith /24) over the path and community of costArchive.
func costRISFeed(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&buf, `{"type":"ris_message","data":{"timestamp":1000000000,"peer":"192.0.2.1","peer_asn":"701","id":"x","host":"rrc00","type":"UPDATE","path":[701,1239,3356,4],"community":[[701,666]],"origin":"igp","announcements":[{"next_hop":"192.0.2.1","prefixes":["%s"]}]}}`+"\n",
			astypes.MustPrefix(0x0a000000|uint32(i)<<8, 24))
	}
	return buf.Bytes()
}

// replayMRT feeds an MRT archive through c.ReplayMRT.
func replayMRT(t *testing.T, c *collector.Collector, archive []byte) {
	if _, err := c.ReplayMRT("mrt:cost", bytes.NewReader(archive), nil); err != nil {
		t.Fatal(err)
	}
}

// replayRIS feeds a RIS-Live feed through rislive.Decode and
// c.ConsumeRISLive, one event per line. The events are queued on a
// channel with room for every line of the largest feed, and consumed on
// the test's goroutine once all are decoded: waits on the channel by a
// consumer goroutine would allocate now and then, and blur the ledger.
func replayRIS(t *testing.T, c *collector.Collector, feed []byte) {
	events := make(chan *rislive.Event, 2*costRecords)
	for len(feed) > 0 {
		n := bytes.IndexByte(feed, '\n') + 1
		ev, err := rislive.Decode(feed[:n])
		if err != nil || ev == nil {
			t.Fatalf("decode %q: %v, %v", feed[:n], ev, err)
		}
		events <- ev
		feed = feed[n:]
	}
	close(events)
	c.ConsumeRISLive(events, nil)
}

// replayCost replays input through replay into a collector and its
// monitor and returns the heap allocations and bytes it took. warm,
// when non-nil, is replayed first and not counted. The counters are
// process-wide, so a goroutine the runtime or the test binary runs
// meanwhile adds to them: the least of three replays, each into a
// fresh collector, is the path's own cost.
func replayCost(t *testing.T, replay func(*testing.T, *collector.Collector, []byte), warm, input []byte) (allocs, size uint64) {
	t.Helper()
	allocs, size = math.MaxUint64, math.MaxUint64
	for try := 0; try < 3; try++ {
		c := collector.New(collector.Config{Monitor: monitor.New()})
		if warm != nil {
			replay(t, c, warm)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		replay(t, c, input)
		runtime.ReadMemStats(&after)
		c.Close()
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		size = min(size, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, size
}

// costSlack is how far above the golden a per-record allocation count
// may lie when the test runs on a Go release other than the one that
// made the golden.
const costSlack = 0.5

// TestCostLedger pins what one record costs on the feed paths in heap
// allocations and bytes allocated: through Collector.ReplayMRT (MRT
// decode, the collector's mirror, the monitor's check) for a one-NLRI
// BGP4MP UPDATE (row mrt) and for a TABLE_DUMP_V2 RIB record of one
// prefix from two peers (row rib), and through rislive.Decode and
// Collector.ConsumeRISLive for one NDJSON line announcing one prefix
// (row ris): at the first sight of its prefix, and in steady state,
// when the prefix is announced again over the same paths. Every record
// of a row repeats one path per peer, so the first-sight figures show
// the mirror sharing that path's string, its best case. A change that
// moves one shows in the diff of testdata/costs.golden; run with
// -update to regenerate it.
//
// The figures are exact for the code and the Go release, and the golden
// names the release that made it. First-sight figures include the
// amortized growth of the collector's, the monitor's and the checker's
// maps, and map growth differs between releases; so on any other
// release only the allocation counts are checked, each to at most
// costSlack above the golden, which still fails a change that adds an
// allocation per record.
//
// Taking the least of three replays removes most stray allocations by
// other goroutines, but not all: when every replay of the smaller
// archive catches more of them than some replay of the larger, the test
// fails and says so.
func TestCostLedger(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting differs under the race detector")
	}
	perRecord := func(replay func(*testing.T, *collector.Collector, []byte), one, two, warmOne, warmTwo []byte) (float64, float64) {
		a1, b1 := replayCost(t, replay, warmOne, one)
		a2, b2 := replayCost(t, replay, warmTwo, two)
		if a2 < a1 || b2 < b1 {
			t.Fatalf("a replay of %d records cost less than one of %d (%d < %d allocs or %d < %d bytes): stray allocations by another goroutine; rerun",
				2*costRecords, costRecords, a2, a1, b2, b1)
		}
		return float64(a2-a1) / costRecords, float64(b2-b1) / costRecords
	}
	var got bytes.Buffer
	fmt.Fprintf(&got, "# Heap cost of one record: mrt a one-NLRI UPDATE, rib one prefix from two peers, ris one NDJSON\n")
	fmt.Fprintf(&got, "# line (4-AS paths, one community), from replays of %d and %d records (TestCostLedger).\n", costRecords, 2*costRecords)
	fmt.Fprintf(&got, "# %s\n", runtime.Version())
	fmt.Fprintf(&got, "%-4s %-11s %7s %6s\n", "path", "phase", "allocs", "bytes")
	measured := map[string]float64{}
	for _, row := range []struct {
		path   string
		input  func(*testing.T, int) []byte
		replay func(*testing.T, *collector.Collector, []byte)
	}{{"mrt", costArchive, replayMRT}, {"rib", costRIBArchive, replayMRT}, {"ris", costRISFeed, replayRIS}} {
		one, two := row.input(t, costRecords), row.input(t, 2*costRecords)
		firstAllocs, firstBytes := perRecord(row.replay, one, two, nil, nil)
		steadyAllocs, steadyBytes := perRecord(row.replay, one, two, one, two)
		fmt.Fprintf(&got, "%-4s %-11s %7.2f %6.0f\n", row.path, "first-sight", firstAllocs, firstBytes)
		fmt.Fprintf(&got, "%-4s %-11s %7.2f %6.0f\n", row.path, "steady", steadyAllocs, steadyBytes)
		measured[row.path+" first-sight"] = firstAllocs
		measured[row.path+" steady"] = steadyAllocs
	}

	path := filepath.Join("testdata", "costs.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	lines := strings.Split(string(want), "\n")
	if len(lines) < 3 || lines[2] != "# "+runtime.Version() {
		t.Logf("golden made with another Go release; checking allocation counts only\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
		wantAllocs := map[string]float64{}
		for _, line := range lines {
			var path, phase string
			var allocs, size float64
			if n, _ := fmt.Sscanf(line, "%s %s %g %g", &path, &phase, &allocs, &size); n == 4 {
				wantAllocs[path+" "+phase] = allocs
			}
		}
		for row, allocs := range measured {
			w, ok := wantAllocs[row]
			if !ok {
				t.Errorf("golden has no %q row (run with -update to regenerate)", row)
			} else if allocs > w+costSlack {
				t.Errorf("%s: %.2f allocs per record, golden %.2f (+%.1f allowed on this release)", row, allocs, w, costSlack)
			}
		}
		return
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("cost ledger mismatch (run with -update to regenerate)\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
}
