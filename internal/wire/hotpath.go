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
// buffer) — is valid only until the next Decode, DecodeUpdate or
// Rewind call; callers that retain any of it must copy (rib.Route
// construction already does).
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
// reusing the Decoder's scratch for UPDATEs, which are 2-octet.
func (d *Decoder) Decode(buf []byte) (Message, error) {
	t, body, err := SplitMessage(buf)
	if err != nil {
		return nil, err
	}
	var m Message
	if t == MsgUpdate {
		m, err = d.DecodeUpdate(body, AS2)
	} else {
		m, err = Decode(buf)
	}
	if err == nil {
		d.span++
	}
	return m, err
}

// DecodeUpdate parses an UPDATE body (the message after its header)
// whose AS numbers are w octets wide into the Decoder's scratch, as
// Decode does, without counting a span.
func (d *Decoder) DecodeUpdate(body []byte, w ASWidth) (*Update, error) {
	d.Rewind()
	return decodeUpdateInto(&d.upd, d, body, w)
}

// DecodeAttrs parses a bare attribute block with w-octet AS numbers —
// one TABLE_DUMP_V2 RIB entry's — into a, reusing a's slices. Its AS
// path is carved from the Decoder's arena, which DecodeAttrs does not
// recycle, so the paths of every block decoded since the last Rewind
// stay valid together. Unknown-attribute values alias data.
func (d *Decoder) DecodeAttrs(a *PathAttrs, data []byte, w ASWidth) error {
	return a.decode(data, d, w)
}

// Rewind recycles the Decoder's arena: the AS paths of everything it
// decoded before become invalid.
func (d *Decoder) Rewind() { d.asns = d.asns[:0] }

// Span returns the ordinal of the most recently decoded message,
// starting at 1; 0 means nothing has decoded yet.
func (d *Decoder) Span() uint64 { return d.span }

// readBufLen is the size of a Reader's fill buffer: one Read takes up
// to ~1 000 back-to-back ~60-byte UPDATEs, or 16 full-size messages.
const readBufLen = 64 << 10

// Reader frames and decodes messages from one connection with zero
// steady-state allocations. It reads ahead into an owned fill buffer:
// one Read takes as many frames as the source holds, and ReadMessage
// reads again only when no complete frame is buffered. UPDATEs decode
// into Decoder scratch. The message returned by ReadMessage is valid
// only until the next call. Not safe for concurrent use; a BGP session
// has exactly one reader goroutine.
type Reader struct {
	r io.Reader
	// buf[start:end] is read but not yet framed. The frame returned
	// last lies before start and may still be aliased by its message
	// (unknown-attribute values), so only a fill, which runs inside the
	// next ReadMessage, moves bytes.
	buf        [readBufLen]byte
	start, end int
	// err is the error the last Read returned; it is reported once the
	// frames completed before it are consumed, as bufio.Reader does.
	err error
	dec Decoder
	// rec, when set, stamps each fill's ingest instant (fillSt) and
	// records each message's decode-stage latency; st is the current
	// message's stamp, owned by the Reader (valid until the next
	// ReadMessage) so the record path stays allocation-free.
	rec    *obs.Recorder
	fillSt obs.Stamp
	st     obs.Stamp
}

// NewReader returns a Reader framing messages from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r}
}

// ReadMessage reads one message. Its header is validated as soon as
// its 19 bytes are buffered, before any body byte is awaited (see
// frameLen). The end of the source at a frame boundary returns io.EOF;
// inside a frame, io.ErrUnexpectedEOF.
func (rd *Reader) ReadMessage() (Message, error) {
	n, err := rd.next()
	if err != nil {
		return nil, err
	}
	frame := rd.buf[rd.start : rd.start+n]
	rd.start += n
	// Ingest T0 is the return of the Read that completed this frame:
	// time blocked on an idle socket is never counted, while time the
	// frame waited in the buffer behind earlier frames is.
	rd.st = rd.fillSt
	m, err := rd.dec.Decode(frame)
	if err != nil {
		return nil, err
	}
	// The span is threaded even with no recorder so downstream stamp
	// handlers still correlate on it.
	rd.st.Span = rd.dec.Span()
	rd.rec.Cross(&rd.st, obs.StageDecode)
	return m, nil
}

// Buffered reports whether the next ReadMessage returns without reading
// from the source: a complete frame, or a header that fails validation,
// is already buffered.
func (rd *Reader) Buffered() bool {
	avail := rd.end - rd.start
	if avail < HeaderLen {
		return false
	}
	n, err := frameLen(rd.buf[rd.start:rd.end])
	return err != nil || n <= avail
}

// next returns the length of the frame at buf[start:], filling from the
// source until the whole frame is buffered.
func (rd *Reader) next() (int, error) {
	for {
		if avail := rd.end - rd.start; avail >= HeaderLen {
			n, err := frameLen(rd.buf[rd.start:rd.end])
			if err != nil {
				return 0, err
			}
			if n <= avail {
				return n, nil
			}
		}
		if err := rd.err; err != nil {
			rd.err = nil
			if err == io.EOF && rd.end > rd.start {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		rd.fill()
	}
}

// fill moves the unframed tail of buf to the front and makes one Read
// into the space after it. A Read that returns bytes restamps the
// ingest instant: every frame framed before the next fill was completed
// by this Read.
func (rd *Reader) fill() {
	rd.end = copy(rd.buf[:], rd.buf[rd.start:rd.end])
	rd.start = 0
	n, err := rd.r.Read(rd.buf[rd.end:])
	if n > 0 {
		rd.end += n
		rd.fillSt = rd.rec.Start(0)
	}
	rd.err = err
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
