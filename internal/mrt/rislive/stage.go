package rislive

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/backoff"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Policy selects what the Stage does when the bounded channel is full.
type Policy int

const (
	// PolicyBlock stalls the feed reader until the consumer catches up.
	// Over a real connection the stall propagates into TCP backpressure;
	// no event is ever lost, at the cost of the feed lagging.
	PolicyBlock Policy = iota
	// PolicyDrop discards the newest event and counts it, keeping the
	// feed reader at line rate. Delivered + Dropped never exceeds
	// Received in any snapshot and equals it exactly at quiescence (the
	// soak test enforces both).
	PolicyDrop
)

func (p Policy) String() string {
	if p == PolicyDrop {
		return "drop"
	}
	return "block"
}

// ParsePolicy maps the flag spellings to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "block":
		return PolicyBlock, nil
	case "drop":
		return PolicyDrop, nil
	default:
		return 0, fmt.Errorf("rislive: unknown backpressure policy %q (want block or drop)", s)
	}
}

// DefaultBuffer is the bounded-channel capacity when Config leaves it
// zero. Decoding outruns the consumer, so under PolicyBlock the channel
// sits full and its length is a standing queue: lag ≈ Buffer ÷ consumer
// rate, about 1 ms at 256. Under PolicyDrop it is the burst cushion,
// Buffer ÷ feed rate. 256 keeps both small; operators override it with
// moas-collector -ris-buffer.
const DefaultBuffer = 256

// Config parameterizes a Stage.
type Config struct {
	// URL is the streaming endpoint (NDJSON over HTTP), e.g.
	// https://ris-live.ripe.net/v1/stream/?format=json&client=repro.
	URL string
	// Buffer is the bounded-channel capacity (DefaultBuffer when 0).
	Buffer int
	// Policy selects the full-channel behavior.
	Policy Policy
	// ReconnectBase and ReconnectMax bound the shared backoff schedule
	// (1s and 30s when zero).
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// Client overrides the HTTP client (http.DefaultClient when nil).
	Client *http.Client
	// Registry receives the stage's counters; nil keeps them on a
	// private registry. Counters reads them back, so stages sharing a
	// registry share their accounting.
	Registry *telemetry.Registry
	// Obs, if set, stamps each event's ingest instant before its line
	// decodes and records the decode-stage latency; the stamp rides the
	// Event so downstream consumers cross the later stages.
	Obs *obs.Recorder
	// Seed fixes the reconnect jitter for tests; 0 lets
	// backoff.NewJitter draw a per-instance wall-clock seed.
	Seed int64
}

// Counters is a snapshot of the stage's accounting. Received counts
// decoded UPDATE events entering delivery; Delivered + Dropped <=
// Received holds for every snapshot (an event in flight between its
// received increment and its delivery/drop accounts for the gap), with
// equality at any quiescent point.
type Counters struct {
	Received    uint64
	Delivered   uint64
	Dropped     uint64
	ParseErrors uint64
	Skipped     uint64 // well-formed lines with nothing to deliver
	Reconnects  uint64
}

// Stage pumps a RIS-Live feed into a bounded channel. Create with
// NewStage, consume Events(), and drive it with Run (HTTP + reconnect)
// or RunReader (one already-open stream, e.g. a recorded file).
type Stage struct {
	cfg Config
	out chan *Event

	// seq mints each received event's span: its ordinal in this
	// stage's stream. Only the ingest goroutine touches it.
	seq uint64

	// The stage's accounting lives only in these instruments; Counters
	// reads them back.
	received    *telemetry.Counter
	delivered   *telemetry.Counter
	dropped     *telemetry.Counter
	parseErrors *telemetry.Counter
	skipped     *telemetry.Counter
	reconnects  *telemetry.Counter
	queue       *telemetry.Gauge
	// connected is 1 while the feed is attached to a source (HTTP 200
	// established, or a RunReader stream in progress); readiness probes
	// consult it.
	connected *telemetry.Gauge
	// lagMs is the stream-lag watermark (wall clock minus the event's
	// feed timestamp); lag is its histogram twin for distribution.
	lagMs *telemetry.Gauge
	lag   *telemetry.Histogram
}

// NewStage returns a Stage with the channel allocated but no connection
// made yet.
func NewStage(cfg Config) *Stage {
	if cfg.Buffer <= 0 {
		cfg.Buffer = DefaultBuffer
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = time.Second
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 30 * time.Second
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	r := cfg.Registry
	if r == nil {
		r = telemetry.NewRegistry("moas")
	}
	return &Stage{
		cfg:         cfg,
		out:         make(chan *Event, cfg.Buffer),
		received:    r.Counter("rislive_received_total", "UPDATE events decoded from the feed."),
		delivered:   r.Counter("rislive_delivered_total", "Events handed to the consumer."),
		dropped:     r.Counter("rislive_dropped_total", "Events discarded by the drop policy."),
		parseErrors: r.Counter("rislive_parse_errors_total", "Feed lines that failed to decode or exceeded the line limit."),
		skipped:     r.Counter("rislive_skipped_total", "Well-formed feed lines with nothing to deliver."),
		reconnects:  r.Counter("rislive_reconnects_total", "Feed connection attempts after the first."),
		queue:       r.Gauge("rislive_queue_depth", "Events buffered in the bounded channel."),
		connected:   r.Gauge("rislive_connected", "1 while the feed connection is established."),
		lagMs:       r.Gauge("rislive_lag_ms", "Stream-lag watermark: wall clock minus event timestamp, milliseconds."),
		lag:         r.Histogram("rislive_lag_seconds", "Stream-lag distribution in seconds."),
	}
}

// Events returns the bounded output channel. It is closed when Run or
// RunReader returns.
func (s *Stage) Events() <-chan *Event { return s.out }

// Connected reports whether the feed is currently attached to a source.
func (s *Stage) Connected() bool { return s.connected.Value() != 0 }

// setConnected flips the connection state.
func (s *Stage) setConnected(up bool) {
	if up {
		s.connected.Set(1)
	} else {
		s.connected.Set(0)
	}
}

// Counters returns a snapshot of the stage's accounting.
func (s *Stage) Counters() Counters {
	// Load the outcome counters before received: every delivered/dropped
	// increment is preceded by that event's received increment, so
	// reading received last guarantees Delivered + Dropped <= Received
	// for a snapshot taken mid-delivery. (Loading received first could
	// transiently report the opposite.)
	delivered := s.delivered.Value()
	dropped := s.dropped.Value()
	parseErrors := s.parseErrors.Value()
	skipped := s.skipped.Value()
	reconnects := s.reconnects.Value()
	return Counters{
		Received:    s.received.Value(),
		Delivered:   delivered,
		Dropped:     dropped,
		ParseErrors: parseErrors,
		Skipped:     skipped,
		Reconnects:  reconnects,
	}
}

// Run streams from the configured URL until ctx is canceled,
// reconnecting on any connection failure with the shared
// capped-exponential-jittered backoff (the same schedule as the
// daemon's peer re-dial loop). The output channel is closed on return.
func (s *Stage) Run(ctx context.Context) error {
	defer close(s.out)
	jit := backoff.NewJitter(s.cfg.Seed)
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := s.connectOnce(ctx)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		_ = err // any disconnect reason leads to the same backoff
		delay := jit.Delay(s.cfg.ReconnectBase, s.cfg.ReconnectMax, attempt)
		attempt++
		s.reconnects.Inc()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// connectOnce opens the HTTP stream and ingests it until it breaks.
func (s *Stage) connectOnce(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.cfg.URL, nil)
	if err != nil {
		return err
	}
	resp, err := s.cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("rislive: feed returned %s", resp.Status)
	}
	s.setConnected(true)
	defer s.setConnected(false)
	return s.ingest(ctx, resp.Body)
}

// RunReader ingests one already-open NDJSON stream (a recorded feed
// file, a test pipe) to EOF, then closes the output channel. No
// reconnect: the stream is all there is.
func (s *Stage) RunReader(ctx context.Context, r io.Reader) error {
	defer close(s.out)
	s.setConnected(true)
	defer s.setConnected(false)
	err := s.ingest(ctx, r)
	if errors.Is(err, io.EOF) {
		return nil
	}
	return err
}

// maxLine bounds one feed line; RIS UPDATE bursts run a few hundred KiB
// at most.
const maxLine = 4 << 20

// ingest decodes lines from r and delivers them under the configured
// policy until the stream or ctx ends.
func (s *Stage) ingest(ctx context.Context, r io.Reader) error {
	lr := lineReader{r: bufio.NewReaderSize(r, 64<<10), max: maxLine}
	for {
		line, err := lr.next()
		if errors.Is(err, errLineTooLong) {
			s.parseErrors.Inc()
			continue
		}
		if err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(line) == 0 {
			continue
		}
		// Ingest T0 is stamped before the line decodes, mirroring the
		// wire reader's frame-read instant.
		st := s.cfg.Obs.Start(0)
		ev, err := Decode(line)
		if err != nil {
			s.parseErrors.Inc()
			continue
		}
		if ev == nil {
			s.skipped.Inc()
			continue
		}
		s.seq++
		ev.Span = s.seq
		st.Span = ev.Span
		s.cfg.Obs.Cross(&st, obs.StageDecode)
		ev.Stamp = st
		s.received.Inc()
		// Stream-lag watermark: wall clock minus the event's feed
		// timestamp. Only meaningful for live feeds (recorded replays
		// report their age, which is its own useful signal).
		if !ev.Time.IsZero() {
			lag := max(time.Since(ev.Time), 0)
			s.lagMs.Set(lag.Milliseconds())
			s.lag.Observe(lag)
		}
		switch s.cfg.Policy {
		case PolicyDrop:
			select {
			case s.out <- ev:
				s.delivered.Inc()
			default:
				s.dropped.Inc()
			}
		default: // PolicyBlock
			select {
			case s.out <- ev:
				s.delivered.Inc()
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		s.queue.Set(int64(len(s.out)))
	}
}

// errLineTooLong reports a line longer than lineReader.max, which was
// skipped.
var errLineTooLong = errors.New("rislive: line too long")

// lineReader splits a stream into lines as bufio.ScanLines does — the
// terminator and one '\r' before it dropped, a last line without one
// returned — except that a line longer than max is discarded up to its
// newline and reported as errLineTooLong, and reading goes on.
type lineReader struct {
	r    *bufio.Reader
	max  int
	long []byte // a line that spans reader buffers
	err  error  // the error that ended the stream, returned from then on
}

// next returns the next line, valid until the following call. At the
// end of the stream it returns io.EOF or the read error.
func (lr *lineReader) next() ([]byte, error) {
	if lr.err != nil {
		return nil, lr.err
	}
	lr.long = lr.long[:0]
	over := false // the line is longer than max, even without a '\r'
	for {
		frag, err := lr.r.ReadSlice('\n')
		if errors.Is(err, bufio.ErrBufferFull) {
			over = over || len(lr.long)+len(frag) > lr.max+1
			if !over {
				lr.long = append(lr.long, frag...)
			}
			continue
		}
		if err != nil {
			lr.err = err
			if !errors.Is(err, io.EOF) || (len(frag) == 0 && len(lr.long) == 0 && !over) {
				return nil, err
			}
		}
		if over {
			return nil, errLineTooLong
		}
		line := frag
		if len(lr.long) > 0 {
			lr.long = append(lr.long, frag...)
			line = lr.long
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		line = bytes.TrimSuffix(line, []byte("\r"))
		if len(line) > lr.max {
			return nil, errLineTooLong
		}
		return line, nil
	}
}
