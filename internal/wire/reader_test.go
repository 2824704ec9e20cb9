package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
)

// countingReader counts the Read calls made on r.
type countingReader struct {
	r     io.Reader
	reads int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.reads++
	return c.r.Read(p)
}

// oneRead returns all of data, together with err, from its first Read,
// and (0, err) from every later one.
type oneRead struct {
	data []byte
	err  error
}

func (o *oneRead) Read(p []byte) (int, error) {
	n := copy(p, o.data)
	o.data = o.data[n:]
	return n, o.err
}

// headerOnly returns the 19 bytes of hdr from its first Read and fails
// the test on any later one: a Reader that waits for a body byte after
// a bad header is not failing fast.
type headerOnly struct {
	t    *testing.T
	hdr  []byte
	done bool
}

func (h *headerOnly) Read(p []byte) (int, error) {
	if h.done {
		h.t.Error("Read after a bad header")
		return 0, io.EOF
	}
	h.done = true
	return copy(p, h.hdr[:HeaderLen]), nil
}

func encodeStream(t testing.TB, n int, m Message) []byte {
	t.Helper()
	var stream bytes.Buffer
	for i := 0; i < n; i++ {
		if err := WriteMessage(&stream, m); err != nil {
			t.Fatal(err)
		}
	}
	return stream.Bytes()
}

// TestReaderFailsFastOnBadHeader: the Reader rejects a bad marker or a
// bad declared length from the 19 header bytes alone, without another
// Read for the body.
func TestReaderFailsFastOnBadHeader(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(frame []byte)
		sub     uint8
	}{
		{"marker", func(f []byte) { f[0] = 0 }, SubConnNotSynced},
		{"length over max", func(f []byte) { f[16], f[17] = 0xff, 0xff }, SubBadLength},
		{"length under header", func(f []byte) { f[16], f[17] = 0, HeaderLen-1 }, SubBadLength},
	} {
		t.Run(tc.name, func(t *testing.T) {
			frame, err := Encode(moasUpdate())
			if err != nil {
				t.Fatal(err)
			}
			tc.corrupt(frame)
			rd := NewReader(&headerOnly{t: t, hdr: frame})
			_, err = rd.ReadMessage()
			var me *MessageError
			if !errors.As(err, &me) || me.Code != ErrCodeHeader || me.Subcode != tc.sub {
				t.Fatalf("err = %v, want header error subcode %d", err, tc.sub)
			}
		})
	}
}

// TestReaderReadCount: back-to-back UPDATEs arrive in buffer-sized
// reads, not one or two reads per message.
func TestReaderReadCount(t *testing.T) {
	const n = 10000
	stream := encodeStream(t, n, moasUpdate())
	src := &countingReader{r: bytes.NewReader(stream)}
	rd := NewReader(src)
	for i := 0; i < n; i++ {
		if _, err := rd.ReadMessage(); err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
	}
	if _, err := rd.ReadMessage(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
	const chunk = 60 << 10
	if max := (len(stream)+chunk-1)/chunk + 1; src.reads > max {
		t.Errorf("%d messages (%d bytes) took %d reads, want <= %d", n, len(stream), src.reads, max)
	}
}

// TestReaderEndOfStream: the frames a Read returns are framed before the
// error that came with them, and EOF inside a frame is unexpected.
func TestReaderEndOfStream(t *testing.T) {
	errBroken := errors.New("connection broken")
	two := encodeStream(t, 2, moasUpdate())
	for _, tc := range []struct {
		name string
		src  io.Reader
		msgs int
		want error
	}{
		{"eof after the data", bytes.NewReader(two), 2, io.EOF},
		{"eof with the data", &oneRead{two, io.EOF}, 2, io.EOF},
		{"eof mid-frame", bytes.NewReader(two[:len(two)-1]), 1, io.ErrUnexpectedEOF},
		{"eof with a partial frame", &oneRead{two[:len(two)-1], io.EOF}, 1, io.ErrUnexpectedEOF},
		{"eof mid-header", &oneRead{two[:len(two)/2+HeaderLen-1], io.EOF}, 1, io.ErrUnexpectedEOF},
		{"error with the data", &oneRead{two, errBroken}, 2, errBroken},
		{"error with a partial frame", &oneRead{two[:len(two)-1], errBroken}, 1, errBroken},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rd := NewReader(tc.src)
			for i := 0; i < tc.msgs; i++ {
				if _, err := rd.ReadMessage(); err != nil {
					t.Fatalf("message %d: %v", i, err)
				}
			}
			if _, err := rd.ReadMessage(); err != tc.want {
				t.Errorf("after %d messages: %v, want %v", tc.msgs, err, tc.want)
			}
		})
	}
}

// TestReaderMessageValidUntilNextRead: an unknown attribute aliases the
// fill buffer, so the Reader must not move buffered bytes until the
// next ReadMessage, even with more frames (and a partial one) buffered
// behind it.
func TestReaderMessageValidUntilNextRead(t *testing.T) {
	value := []byte{0xde, 0xad, 0xbe, 0xef}
	u := moasUpdate()
	u.Attrs.Unknown = []UnknownAttr{NewOptionalTransitive(99, value)}
	// The keepalives behind it are longer than the UPDATE, so moving
	// them to the front of the buffer would overwrite all of it.
	stream := append(encodeStream(t, 1, u), encodeStream(t, 10, &Keepalive{})...)
	rd := NewReader(bytes.NewReader(stream[:len(stream)-1]))
	m, err := rd.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	got := m.(*Update).Attrs.Unknown
	if len(got) != 1 || !bytes.Equal(got[0].Value, value) {
		t.Fatalf("unknown attributes = %+v, want value %x", got, value)
	}
	for i := 0; i < 9; i++ {
		if _, err := rd.ReadMessage(); err != nil {
			t.Fatalf("keepalive %d: %v", i, err)
		}
	}
	if _, err := rd.ReadMessage(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated keepalive: %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestReaderStampsIngestAtFill: ingest is stamped when the Read that
// completed a frame returns, so a frame that waits in the buffer behind
// an earlier one has that wait in its decode stage.
func TestReaderStampsIngestAtFill(t *testing.T) {
	src := &countingReader{r: bytes.NewReader(encodeStream(t, 2, moasUpdate()))}
	rec := obs.NewRecorder()
	rd := NewReader(src)
	rd.SetObserver(rec)
	decodeSum := func() time.Duration {
		return time.Duration(rec.Snapshot()[obs.StageDecode].SumNs)
	}
	if _, err := rd.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	first := decodeSum()
	const wait = 2 * time.Millisecond
	time.Sleep(wait)
	if _, err := rd.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if src.reads != 1 {
		t.Fatalf("two frames took %d reads, want 1", src.reads)
	}
	if n := rec.StageCount(obs.StageDecode); n != 2 {
		t.Fatalf("decode observations = %d, want 2", n)
	}
	if second := decodeSum() - first; second < wait {
		t.Errorf("second frame's decode stage = %v, want >= %v", second, wait)
	}
}

// chunkReader serves data in the chunk sizes a fuzz input picks, cycling
// through sizes (empty sizes: one byte per Read). With eofWithData the
// last bytes come together with io.EOF.
type chunkReader struct {
	data        []byte
	sizes       []byte
	next        int
	eofWithData bool
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := 1
	if len(c.sizes) > 0 {
		s := int(c.sizes[c.next%len(c.sizes)])
		c.next++
		n = 1 + s*s/4 // 1 to 16 257 bytes
	}
	n = copy(p, c.data[:min(n, len(c.data))])
	c.data = c.data[n:]
	if len(c.data) == 0 && c.eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// FuzzReaderMatchesReadMessage: the fill-buffer Reader over a chunking
// source yields the messages that repeated package-level ReadMessage
// (exact reads) yields over the same bytes, in the same order, and ends
// with the same class of error.
func FuzzReaderMatchesReadMessage(f *testing.F) {
	upd, err := Encode(moasUpdate())
	if err != nil {
		f.Fatal(err)
	}
	open, err := Encode(&Open{Version: Version4, AS: 701, HoldTime: 90, BGPID: 1})
	if err != nil {
		f.Fatal(err)
	}
	ka, err := Encode(&Keepalive{})
	if err != nil {
		f.Fatal(err)
	}
	stream := bytes.Join([][]byte{open, ka, upd, upd, ka, upd}, nil)
	badMarker := append(append([]byte(nil), stream...), upd...)
	badMarker[len(stream)+3] = 0
	badLength := append(append([]byte(nil), stream...), upd...)
	badLength[len(stream)+16] = 0xff
	badBody := append(append([]byte(nil), upd...), upd...)
	badBody[len(upd)+HeaderLen+1] = 0xff // withdrawn length past the body
	for _, data := range [][]byte{stream, stream[:len(stream)-1], stream[:len(stream)-len(upd)+5], badMarker, badLength, badBody, nil} {
		f.Add(data, []byte{})
		f.Add(data, []byte{4, 9})
		f.Add(data, []byte{255, 1, 30})
	}

	f.Fuzz(func(t *testing.T, data, sizes []byte) {
		eofWithData := len(sizes)%2 == 1
		var want []Message
		var wantErr error
		exact := &chunkReader{data: data, sizes: sizes, eofWithData: eofWithData}
		for {
			m, err := ReadMessage(exact)
			if err != nil {
				wantErr = err
				break
			}
			want = append(want, m)
		}
		rd := NewReader(&chunkReader{data: data, sizes: sizes, eofWithData: eofWithData})
		for i := 0; ; i++ {
			// Compare before the next ReadMessage: the message is valid
			// only until then.
			m, err := rd.ReadMessage()
			if err != nil {
				if i != len(want) {
					t.Fatalf("Reader failed after %d messages with %v; ReadMessage read %d, then %v", i, err, len(want), wantErr)
				}
				if got, want := errClass(err), errClass(wantErr); got != want {
					t.Fatalf("terminal error %q, ReadMessage's %q", got, want)
				}
				return
			}
			if i >= len(want) {
				t.Fatalf("Reader read message %d (%s); ReadMessage stopped at %d with %v", i, m.Type(), len(want), wantErr)
			}
			if !sameMessage(m, want[i]) {
				t.Fatalf("message %d:\n Reader      %+v\n ReadMessage %+v", i, m, want[i])
			}
		}
	})
}

// errClass names an error by what a session acts on: the NOTIFICATION
// code and subcode of a MessageError, or the error itself.
func errClass(err error) string {
	var me *MessageError
	if errors.As(err, &me) {
		return fmt.Sprintf("message error %d/%d", me.Code, me.Subcode)
	}
	return err.Error()
}

// sameMessage is reflect.DeepEqual, except that a nil slice equals an
// empty one: the Reader decodes UPDATEs into reused scratch, where a
// fresh decode leaves an absent list nil.
func sameMessage(a, b Message) bool {
	return sameValue(reflect.ValueOf(a), reflect.ValueOf(b))
}

func sameValue(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}
