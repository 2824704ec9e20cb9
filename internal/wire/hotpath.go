// Hot-path companions to the codec: a pooled message buffer shared by
// the package-level ReadMessage/WriteMessage, a Decoder that reuses one
// Update as decode scratch, and per-connection Reader/Writer wrappers
// that make the steady-state message loop allocation-free. See
// docs/performance.md for the design and the benchmarks that guard it.
package wire

import (
	"io"
	"sync"

	"repro/internal/astypes"
	"repro/internal/obs"
)

// msgBufPool holds full-size message buffers for the package-level
// ReadMessage/WriteMessage, which have no per-connection state to
// anchor a reusable buffer on.
var msgBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, MaxMessageLen)
		return &b
	},
}

// Decoder decodes messages into reusable scratch storage. The UPDATE it
// returns — including Withdrawn/NLRI slices, AS-path segments,
// communities, and unknown-attribute values (which alias the input
// buffer) — is valid only until the next Decode call; callers that
// retain any of it must copy (rib.Route construction already does).
// OPEN, NOTIFICATION and ROUTE-REFRESH are session-rare and decode
// into fresh memory. A Decoder is not safe for concurrent use.
type Decoder struct {
	upd Update
	// asns is the flat backing store for decoded AS-path segments.
	asns []astypes.ASN
	// span counts successfully decoded messages: the per-session message
	// ordinal trace events correlate on. Plain (non-atomic) on purpose —
	// a Decoder already requires single-goroutine use.
	span uint64
}

// Decode parses one complete message from buf (header included),
// reusing the Decoder's scratch for UPDATEs.
func (d *Decoder) Decode(buf []byte) (Message, error) {
	t, body, err := checkHeader(buf)
	if err != nil {
		return nil, err
	}
	var m Message
	if t == MsgUpdate {
		m, err = decodeUpdateInto(&d.upd, d, body)
	} else {
		m, err = Decode(buf)
	}
	if err == nil {
		d.span++
	}
	return m, err
}

// Span returns the ordinal of the most recently decoded message,
// starting at 1; 0 means nothing has decoded yet.
func (d *Decoder) Span() uint64 { return d.span }

// Reader frames and decodes messages from one connection with zero
// steady-state allocations: the read buffer is owned by the Reader and
// UPDATEs decode into Decoder scratch. The message returned by
// ReadMessage is valid only until the next call. Not safe for
// concurrent use; a BGP session has exactly one reader goroutine.
type Reader struct {
	r   io.Reader
	buf [MaxMessageLen]byte
	dec Decoder
	// rec, when set, stamps each message's ingest instant and records
	// its decode-stage latency; st is the current message's stamp,
	// owned by the Reader (valid until the next ReadMessage) so the
	// record path stays allocation-free.
	rec *obs.Recorder
	st  obs.Stamp
}

// NewReader returns a Reader framing messages from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// ReadMessage reads exactly one message, validating the marker before
// the body is consumed (see readFrame).
func (rd *Reader) ReadMessage() (Message, error) {
	n, err := readFrame(rd.r, rd.buf[:])
	if err != nil {
		return nil, err
	}
	// Ingest T0 is stamped after the frame is read, so time spent
	// blocked on the socket (idle sessions) never pollutes the decode
	// stage.
	rd.st = rd.rec.Start(0)
	m, err := rd.dec.Decode(rd.buf[:n])
	if err != nil {
		return nil, err
	}
	// The span is threaded even with no recorder so downstream stamp
	// handlers still correlate on it.
	rd.st.Span = rd.dec.Span()
	rd.rec.Cross(&rd.st, obs.StageDecode)
	return m, nil
}

// Span returns the ordinal of the most recently decoded message (see
// Decoder.Span).
func (rd *Reader) Span() uint64 { return rd.dec.Span() }

// SetObserver attaches a stage-latency recorder: each subsequent
// message gets an ingest stamp and a decode-stage observation. A nil
// recorder (the default) keeps the reader observation-free.
func (rd *Reader) SetObserver(rec *obs.Recorder) { rd.rec = rec }

// Stamp returns the current message's stage stamp, for handlers that
// carry it across later stage crossings. The pointer is owned by the
// Reader and is overwritten by the next ReadMessage.
func (rd *Reader) Stamp() *obs.Stamp { return &rd.st }

// Writer accumulates encoded messages in an owned buffer and writes
// them out on explicit Flush points, so back-to-back sends (a route
// burst, the OPEN/KEEPALIVE handshake pair) coalesce into fewer writes
// and the encode path never allocates. Callers must serialize access
// (sessions hold writeMu) and must Flush before expecting the peer to
// see anything.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter returns a buffered message writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 2*MaxMessageLen)}
}

// WriteMessage encodes m into the buffer. The buffer is written out
// early when it already holds at least one full-size message, keeping
// the backing array at its initial capacity forever.
func (wr *Writer) WriteMessage(m Message) error {
	buf, err := AppendMessage(wr.buf, m)
	if err != nil {
		return err
	}
	wr.buf = buf
	if len(wr.buf) >= MaxMessageLen {
		return wr.Flush()
	}
	return nil
}

// Buffered returns the number of bytes pending a Flush.
func (wr *Writer) Buffered() int { return len(wr.buf) }

// Flush writes any buffered messages to the underlying writer. Buffered
// data is discarded on error (the connection is failing anyway).
func (wr *Writer) Flush() error {
	if len(wr.buf) == 0 {
		return nil
	}
	_, err := wr.w.Write(wr.buf)
	wr.buf = wr.buf[:0]
	return err
}
