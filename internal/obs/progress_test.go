package obs

import (
	"io"
	"strings"
	"testing"
)

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
