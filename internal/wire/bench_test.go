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

// BenchmarkWireReaderStream measures the full framed read path (header
// validation + body read + scratch decode) over an in-memory stream.
func BenchmarkWireReaderStream(b *testing.B) {
	frame, err := Encode(moasUpdate())
	if err != nil {
		b.Fatal(err)
	}
	src := bytes.NewReader(nil)
	rd := NewReader(src)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		src.Reset(frame)
		if _, err := rd.ReadMessage(); err != nil {
			b.Fatal(err)
		}
	}
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
