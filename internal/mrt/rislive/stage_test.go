package rislive

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// feedLine renders one UPDATE announcing 10.<i>.0.0/16.
func feedLine(i int) string {
	return fmt.Sprintf(`{"type":"ris_message","data":{"timestamp":%d,"peer":"192.0.2.9","peer_asn":"65001","host":"rrc00","type":"UPDATE","path":[65001,65002],"origin":"igp","announcements":[{"next_hop":"192.0.2.1","prefixes":["10.%d.0.0/16"]}]}}`, 1000000000+i, i%256)
}

func feed(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(feedLine(i))
		b.WriteByte('\n')
		if i%97 == 0 {
			b.WriteString("\n") // blank lines are tolerated
		}
		if i%131 == 0 {
			b.WriteString(`{"type":"ris_message","data":{"type":"KEEPALIVE"}}` + "\n")
		}
		if i%157 == 0 {
			b.WriteString("not json at all\n")
		}
	}
	return b.String()
}

// snapshotLoop hammers Counters() while the stage is mid-flight and
// checks the snapshot invariant Delivered + Dropped <= Received on
// every read — not just at quiescence. Stop it by closing stop; the
// number of snapshots taken arrives on the returned channel.
func snapshotLoop(t *testing.T, s *Stage, stop <-chan struct{}) <-chan int {
	t.Helper()
	out := make(chan int, 1)
	go func() {
		snapshots := 0
		for {
			select {
			case <-stop:
				out <- snapshots
				return
			default:
			}
			c := s.Counters()
			if c.Delivered+c.Dropped > c.Received {
				t.Errorf("mid-flight snapshot violates invariant: delivered %d + dropped %d > received %d",
					c.Delivered, c.Dropped, c.Received)
				out <- snapshots
				return
			}
			snapshots++
		}
	}()
	return out
}

// TestBackpressureSoakDrop runs a deliberately slow consumer against
// the drop policy: the producer never stalls, memory stays bounded by
// the channel capacity, every mid-flight Counters snapshot satisfies
// Delivered + Dropped <= Received, and at quiescence the books balance
// exactly with a nonzero drop count.
func TestBackpressureSoakDrop(t *testing.T) {
	const n = 20000
	s := NewStage(Config{Buffer: 8, Policy: PolicyDrop})
	stop := make(chan struct{})
	snaps := snapshotLoop(t, s, stop)
	done := make(chan struct{})
	var consumed uint64
	go func() {
		defer close(done)
		for range s.Events() {
			consumed++
			if consumed%64 == 0 {
				time.Sleep(50 * time.Microsecond) // the slow consumer
			}
		}
	}()
	if err := s.RunReader(context.Background(), strings.NewReader(feed(n))); err != nil {
		t.Fatal(err)
	}
	<-done
	close(stop)
	if taken := <-snaps; taken == 0 {
		t.Error("snapshot loop never ran mid-flight")
	}
	c := s.Counters()
	if c.Received != n {
		t.Errorf("received %d, want %d", c.Received, n)
	}
	if c.Delivered+c.Dropped != c.Received {
		t.Errorf("accounting broken: delivered %d + dropped %d != received %d",
			c.Delivered, c.Dropped, c.Received)
	}
	if c.Dropped == 0 {
		t.Error("slow consumer with buffer 8 dropped nothing; soak is not soaking")
	}
	if consumed != c.Delivered {
		t.Errorf("consumer saw %d events, stage delivered %d", consumed, c.Delivered)
	}
	if c.ParseErrors == 0 || c.Skipped == 0 {
		t.Errorf("feed noise not accounted: %+v", c)
	}
}

// TestBackpressureSoakBlock runs the same slow consumer under the block
// policy: nothing is ever dropped, every event arrives, and mid-flight
// snapshots never overcount Delivered + Dropped against Received.
func TestBackpressureSoakBlock(t *testing.T) {
	const n = 5000
	s := NewStage(Config{Buffer: 8, Policy: PolicyBlock})
	stop := make(chan struct{})
	snaps := snapshotLoop(t, s, stop)
	done := make(chan struct{})
	var consumed uint64
	go func() {
		defer close(done)
		for range s.Events() {
			consumed++
			if consumed%64 == 0 {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}()
	if err := s.RunReader(context.Background(), strings.NewReader(feed(n))); err != nil {
		t.Fatal(err)
	}
	<-done
	close(stop)
	if taken := <-snaps; taken == 0 {
		t.Error("snapshot loop never ran mid-flight")
	}
	c := s.Counters()
	if c.Received != n || c.Delivered != n || c.Dropped != 0 {
		t.Errorf("block policy lost events: %+v", c)
	}
	if consumed != n {
		t.Errorf("consumer saw %d events, want %d", consumed, n)
	}
}

// TestBlockPolicyUnblocksOnCancel: a full channel with no consumer must
// not wedge RunReader forever — cancellation wins.
func TestBlockPolicyUnblocksOnCancel(t *testing.T) {
	s := NewStage(Config{Buffer: 1, Policy: PolicyBlock})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.RunReader(ctx, strings.NewReader(feed(100))) }()
	time.Sleep(10 * time.Millisecond) // let it fill the 1-slot buffer and block
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunReader did not return after cancel")
	}
}

func TestSpansAreOrdinals(t *testing.T) {
	s := NewStage(Config{Buffer: 64, Policy: PolicyBlock})
	go s.RunReader(context.Background(), strings.NewReader(feed(50)))
	var want uint64
	for ev := range s.Events() {
		want++
		if ev.Span != want {
			t.Fatalf("span %d, want %d", ev.Span, want)
		}
	}
}

// TestRunReconnects drives Run against an HTTP server that serves a
// short burst and hangs up, forcing the shared backoff reconnect loop
// to cycle.
func TestRunReconnects(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, feedLine(1)+"\n"+feedLine(2)+"\n")
	}))
	defer srv.Close()
	reg := telemetry.NewRegistry("test")
	s := NewStage(Config{
		URL:           srv.URL,
		Buffer:        16,
		Policy:        PolicyDrop,
		ReconnectBase: time.Millisecond,
		ReconnectMax:  4 * time.Millisecond,
		Registry:      reg,
		Seed:          1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Run(ctx) }()
	go func() {
		for range s.Events() {
		}
	}()
	deadline := time.After(5 * time.Second)
	for s.Counters().Reconnects < 3 {
		select {
		case <-deadline:
			t.Fatal("stage never reconnected")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	c := s.Counters()
	if c.Received < 6 {
		t.Errorf("received %d events across reconnects, want >= 6", c.Received)
	}
}

// TestRunBadStatus: a non-200 response is just another reconnect
// reason, not a hang.
func TestRunBadStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "no feed here", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	s := NewStage(Config{
		URL:           srv.URL,
		ReconnectBase: time.Millisecond,
		ReconnectMax:  2 * time.Millisecond,
		Seed:          1,
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Run(ctx) }()
	deadline := time.After(5 * time.Second)
	for s.Counters().Reconnects < 2 {
		select {
		case <-deadline:
			t.Fatal("stage never retried after a bad status")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	<-errc
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("block"); err != nil || p != PolicyBlock {
		t.Errorf("block: %v %v", p, err)
	}
	if p, err := ParsePolicy("drop"); err != nil || p != PolicyDrop {
		t.Errorf("drop: %v %v", p, err)
	}
	if _, err := ParsePolicy("yolo"); err == nil {
		t.Error("bad policy accepted")
	}
	if PolicyBlock.String() != "block" || PolicyDrop.String() != "drop" {
		t.Error("policy strings wrong")
	}
}

// TestTelemetryMirrors: the registry counters track the atomic ones.
func TestTelemetryMirrors(t *testing.T) {
	reg := telemetry.NewRegistry("test")
	s := NewStage(Config{Buffer: 4, Policy: PolicyDrop, Registry: reg})
	go func() {
		for range s.Events() {
			time.Sleep(time.Millisecond)
		}
	}()
	if err := s.RunReader(context.Background(), strings.NewReader(feed(500))); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Received != 500 || c.Delivered+c.Dropped != c.Received {
		t.Fatalf("counters %+v", c)
	}
	for name, want := range map[string]uint64{
		"rislive_received_total":     c.Received,
		"rislive_delivered_total":    c.Delivered,
		"rislive_dropped_total":      c.Dropped,
		"rislive_parse_errors_total": c.ParseErrors,
		"rislive_skipped_total":      c.Skipped,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if c.Skipped == 0 || c.ParseErrors == 0 {
		t.Errorf("feed noise not counted: %+v", c)
	}
}

// TestOversizeLineSkipped: a line over maxLine is counted as a parse
// error and skipped; the stream goes on, so neither replay nor a live
// connection ends on it.
func TestOversizeLineSkipped(t *testing.T) {
	s := NewStage(Config{Policy: PolicyBlock})
	stream := feedLine(1) + "\n" + strings.Repeat("x", maxLine+1) + "\n" + feedLine(2) + "\n"
	if err := s.RunReader(context.Background(), strings.NewReader(stream)); err != nil {
		t.Fatalf("RunReader: %v", err)
	}
	delivered := 0
	for range s.Events() {
		delivered++
	}
	c := s.Counters()
	if delivered != 2 || c.Delivered != 2 || c.ParseErrors != 1 || c.Reconnects != 0 {
		t.Errorf("consumer saw %d events; counters %+v", delivered, c)
	}
}

// TestLineReader: lines split as bufio.ScanLines splits them, up to and
// including the limit, across reader-buffer boundaries.
func TestLineReader(t *testing.T) {
	const limit = 40
	long := strings.Repeat("y", limit)
	in := "a\r\n\n" + long + "\n" + long + "z\n" + long + "\r\n" + strings.Repeat("z", 3*limit) + "\nlast"
	lr := lineReader{r: bufio.NewReaderSize(strings.NewReader(in), 16), max: limit}
	var got []string
	for {
		line, err := lr.next()
		if errors.Is(err, errLineTooLong) {
			got = append(got, "<long>")
			continue
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(line))
	}
	want := []string{"a", "", long, "<long>", long, "<long>", "last"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("lines %q, want %q", got, want)
	}
}
