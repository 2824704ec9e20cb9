package wire

import (
	"bytes"
	"io"
	"testing"
)

// The Baseline benchmarks exercise the allocating compatibility APIs
// (Encode/Decode allocate the frame and the decoded message afresh);
// their non-baseline twins exercise the pooled/scratch hot path. Run
// each pair with -benchmem: the allocs/op delta is what pooling buys.

func BenchmarkWireEncodeBaseline(b *testing.B) {
	u := moasUpdate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(u); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireEncodePooled frames the same UPDATE through the pooled
// package-level write path (encode + framing, no per-call buffer).
func BenchmarkWireEncodePooled(b *testing.B) {
	u := moasUpdate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteMessage(io.Discard, u); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireDecodeBaseline(b *testing.B) {
	buf, err := Encode(moasUpdate())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeScratch decodes the same frame into Decoder
// scratch storage (the per-connection read path).
func BenchmarkWireDecodeScratch(b *testing.B) {
	buf, err := Encode(moasUpdate())
	if err != nil {
		b.Fatal(err)
	}
	var d Decoder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader serves stream over and over and fills every Read: a peer
// with an unbounded backlog of back-to-back frames.
type loopReader struct {
	stream []byte
	off    int
}

func (l *loopReader) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		c := copy(p[n:], l.stream[l.off:])
		n += c
		l.off = (l.off + c) % len(l.stream)
	}
	return len(p), nil
}

// BenchmarkWireReaderStream measures the full framed read path (fill,
// header validation, scratch decode) over a stream of back-to-back
// UPDATEs, and reports the source Reads each message costs.
func BenchmarkWireReaderStream(b *testing.B) {
	src := &countingReader{r: &loopReader{stream: encodeStream(b, 1024, moasUpdate())}}
	rd := NewReader(src)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.ReadMessage(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(src.reads)/float64(b.N), "reads/op")
}

// BenchmarkWireKeepaliveRoundTrip measures a full keepalive write+read
// cycle through the buffered Writer and scratch Reader — the session
// steady state when no routes are churning.
func BenchmarkWireKeepaliveRoundTrip(b *testing.B) {
	var pipe bytes.Buffer
	wr := NewWriter(&pipe)
	rd := NewReader(&pipe)
	ka := &Keepalive{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wr.WriteMessage(ka); err != nil {
			b.Fatal(err)
		}
		if err := wr.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := rd.ReadMessage(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireUpdateRoundTrip is the same cycle for the representative
// MOAS UPDATE — the collector ingest shape.
func BenchmarkWireUpdateRoundTrip(b *testing.B) {
	var pipe bytes.Buffer
	wr := NewWriter(&pipe)
	rd := NewReader(&pipe)
	u := moasUpdate()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := wr.WriteMessage(u); err != nil {
			b.Fatal(err)
		}
		if err := wr.Flush(); err != nil {
			b.Fatal(err)
		}
		if _, err := rd.ReadMessage(); err != nil {
			b.Fatal(err)
		}
	}
}
