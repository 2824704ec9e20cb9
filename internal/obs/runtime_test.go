package obs

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestSamplerRingAndLast(t *testing.T) {
	s := NewSampler() // never started; we drive record()
	defer s.Close()
	for i := 1; i <= samplerRing+2; i++ {
		s.record(RuntimeSample{UnixNanos: int64(i)})
	}
	got := s.Samples()
	if len(got) != samplerRing {
		t.Fatalf("Samples len = %d, want ring size %d", len(got), samplerRing)
	}
	for i, sm := range got {
		if want := int64(i + 3); sm.UnixNanos != want {
			t.Errorf("sample[%d].UnixNanos = %d, want %d (oldest first)", i, sm.UnixNanos, want)
		}
	}
	last, ok := s.Last()
	if !ok || last.UnixNanos != samplerRing+2 {
		t.Fatalf("Last = %+v ok=%v, want UnixNanos %d", last, ok, samplerRing+2)
	}
}

func TestSamplerStartClose(t *testing.T) {
	s := NewSampler()
	s.interval = time.Millisecond
	s.Start()
	s.Start() // idempotent
	if _, ok := s.Last(); !ok {
		t.Fatal("Start took no synchronous sample")
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if len(s.Samples()) >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()
	s.Close() // idempotent
	n := len(s.Samples())
	time.Sleep(5 * time.Millisecond)
	if got := len(s.Samples()); got != n {
		t.Fatalf("sampler still recording after Close: %d → %d", n, got)
	}
	last, _ := s.Last()
	if last.Goroutines <= 0 || last.HeapAllocBytes == 0 {
		t.Errorf("sample looks empty: %+v", last)
	}
}

func TestSamplerCloseWithoutStart(t *testing.T) {
	s := NewSampler()
	done := make(chan struct{})
	go func() { s.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Close without Start hung")
	}
}

func TestSamplerServeHTTP(t *testing.T) {
	s := NewSampler()
	defer s.Close()
	s.record(takeSample())

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/runtime", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d", rec.Code)
	}
	var out []RuntimeSample
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != 1 || out[0].Goroutines <= 0 {
		t.Fatalf("body = %+v, want one live sample", out)
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/runtime", nil))
	if rec.Code != 405 {
		t.Fatalf("POST status = %d, want 405", rec.Code)
	}
}

func TestProgress(t *testing.T) {
	var p Progress
	if p.Done() {
		t.Fatal("fresh progress done")
	}
	p.SetTotalBytes(200)
	p.AddRecords(3)
	p.AddBytes(50)
	s := p.Snapshot()
	if s.Records != 3 || s.Bytes != 50 || s.TotalBytes != 200 || s.Percent != 25 || s.Done {
		t.Fatalf("snapshot = %+v", s)
	}
	p.AddBytes(300) // over-read past the declared total clamps
	if pct := p.Snapshot().Percent; pct != 100 {
		t.Fatalf("percent = %g, want clamped 100", pct)
	}
	p.MarkDone()
	if !p.Done() || !p.Snapshot().Done {
		t.Fatal("MarkDone not visible")
	}

	var unknown Progress
	unknown.AddBytes(10)
	if pct := unknown.Snapshot().Percent; pct != 0 {
		t.Fatalf("unknown-total percent = %g, want 0", pct)
	}
	unknown.MarkDone()
	if pct := unknown.Snapshot().Percent; pct != 100 {
		t.Fatalf("done unknown-total percent = %g, want 100", pct)
	}

	var nilP *Progress
	nilP.AddRecords(1)
	nilP.AddBytes(1)
	nilP.MarkDone()
	if nilP.Done() || nilP.Snapshot().Records != 0 {
		t.Fatal("nil progress not inert")
	}
}

func TestCountReader(t *testing.T) {
	var p Progress
	r := p.CountReader(strings.NewReader("hello world"))
	buf := make([]byte, 5)
	n, _ := r.Read(buf)
	if n != 5 || p.Snapshot().Bytes != 5 {
		t.Fatalf("read %d, progress %d", n, p.Snapshot().Bytes)
	}
	var nilP *Progress
	src := strings.NewReader("x")
	if nilP.CountReader(src) != io.Reader(src) {
		t.Fatal("nil progress should pass the reader through")
	}
}
