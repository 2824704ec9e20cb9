package rpki

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/astypes"
	"repro/internal/backoff"
	"repro/internal/telemetry"
)

// The RTR-style feed speaks a simplified RPKI-to-Router protocol
// (RFC 8210 shapes, IPv4 only): fixed 8-byte headers framing small
// PDUs, a cache serial for incremental catch-up, and the
// reset/serial-query handshake. Framing follows the internal/wire
// idioms — the header is validated fail-fast before any body byte is
// consumed, and decode works out of a fixed scratch buffer so the
// client's steady state allocates nothing per PDU.
const (
	rtrVersion = 1
	headerLen  = 8
	// maxPDULen bounds any body this protocol can legitimately send; a
	// length beyond it is a framing error, detected before the body is
	// read (a corrupt length must not make the reader swallow the
	// stream).
	maxPDULen = 32
)

// PDU types (RFC 8210 numbering where a counterpart exists).
const (
	pduSerialNotify  = 0 // server → client: new serial available
	pduSerialQuery   = 1 // client → server: deltas since my serial
	pduResetQuery    = 2 // client → server: send the full set
	pduCacheResponse = 3 // server → client: response stream follows
	pduPrefix        = 4 // server → client: one announce/withdraw
	pduEndOfData     = 7 // server → client: response done, new serial
	pduCacheReset    = 8 // server → client: can't serve that serial
	pduError         = 10
)

// flagAnnounce distinguishes announce (1) from withdraw (0) in a
// Prefix PDU.
const flagAnnounce = 1

// pduLen is the exact on-wire size per type; a mismatch is a framing
// error.
var pduLen = map[byte]uint32{
	pduSerialNotify:  headerLen + 4,
	pduSerialQuery:   headerLen + 4,
	pduResetQuery:    headerLen,
	pduCacheResponse: headerLen,
	pduPrefix:        headerLen + 12,
	pduEndOfData:     headerLen + 4,
	pduCacheReset:    headerLen,
	pduError:         headerLen,
}

// pdu is the decoded form of any protocol message.
type pdu struct {
	typ      byte
	serial   uint32
	roa      ROA
	withdraw bool
}

// appendPDU encodes p onto dst (append-in-place, wire-style).
func appendPDU(dst []byte, p pdu) []byte {
	length := pduLen[p.typ]
	dst = append(dst, rtrVersion, p.typ, 0, 0)
	dst = binary.BigEndian.AppendUint32(dst, length)
	switch p.typ {
	case pduSerialNotify, pduSerialQuery, pduEndOfData:
		dst = binary.BigEndian.AppendUint32(dst, p.serial)
	case pduPrefix:
		flags := byte(0)
		if !p.withdraw {
			flags = flagAnnounce
		}
		dst = append(dst, flags, p.roa.Prefix.Len, p.roa.MaxLen, 0)
		dst = binary.BigEndian.AppendUint32(dst, p.roa.Prefix.Addr)
		dst = binary.BigEndian.AppendUint32(dst, uint32(p.roa.Origin))
	}
	return dst
}

// readPDU reads one PDU into scratch, validating the header before any
// body byte is consumed.
func readPDU(br *bufio.Reader, scratch *[maxPDULen]byte) (pdu, error) {
	h := scratch[:headerLen]
	if _, err := io.ReadFull(br, h); err != nil {
		return pdu{}, err
	}
	if h[0] != rtrVersion {
		return pdu{}, fmt.Errorf("rpki: rtr version %d (want %d)", h[0], rtrVersion)
	}
	typ := h[1]
	want, known := pduLen[typ]
	length := binary.BigEndian.Uint32(h[4:8])
	if !known {
		return pdu{}, fmt.Errorf("rpki: unknown rtr pdu type %d", typ)
	}
	if length != want {
		return pdu{}, fmt.Errorf("rpki: rtr pdu type %d length %d (want %d)", typ, length, want)
	}
	p := pdu{typ: typ}
	if length == headerLen {
		return p, nil
	}
	body := scratch[headerLen:length]
	if _, err := io.ReadFull(br, body); err != nil {
		return pdu{}, err
	}
	switch typ {
	case pduSerialNotify, pduSerialQuery, pduEndOfData:
		p.serial = binary.BigEndian.Uint32(body)
	case pduPrefix:
		if body[1] > 32 || body[2] > 32 {
			return pdu{}, fmt.Errorf("rpki: rtr prefix lengths %d/%d out of range", body[1], body[2])
		}
		p.withdraw = body[0]&flagAnnounce == 0
		p.roa.Prefix.Len = body[1]
		p.roa.MaxLen = body[2]
		p.roa.Prefix.Addr = binary.BigEndian.Uint32(body[4:8])
		// The wire carries 4-byte ASNs (RFC 8210); this codebase works in
		// the paper-era 16-bit space, so out-of-range origins are a
		// framing error rather than a silent truncation.
		origin := binary.BigEndian.Uint32(body[8:12])
		if origin > 0xffff {
			return pdu{}, fmt.Errorf("rpki: rtr origin AS%d outside the 16-bit space", origin)
		}
		p.roa.Origin = astypes.ASN(origin)
	}
	return p, nil
}

// ClientConfig parameterizes an RTR client.
type ClientConfig struct {
	// Addr is the cache server ("host:port").
	Addr string
	// Store receives the validated ROA set.
	Store *Store
	// ReconnectBase and ReconnectMax bound the shared backoff schedule
	// (1s and 30s when zero) — the same machinery as the daemon's peer
	// re-dial loop and the RIS-Live stage.
	ReconnectBase time.Duration
	ReconnectMax  time.Duration
	// Seed fixes the reconnect jitter for tests; 0 lets backoff draw a
	// per-instance wall-clock seed.
	Seed int64
	// Dial overrides the dialer (a plain net.Dialer when nil).
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Registry receives the client's counters; nil keeps them on a
	// private registry.
	Registry *telemetry.Registry
}

// Client maintains an RTR session against a cache server, applying its
// add/withdraw deltas to the Store and resyncing from scratch when the
// server can no longer serve the client's serial.
type Client struct {
	cfg ClientConfig
	jit *backoff.Jitter

	serial uint32 // last EndOfData serial; meaningful when synced
	synced bool
	// everSynced flips once the first end-of-data lands; batch callers
	// poll Synced before trusting the store.
	everSynced atomic.Bool

	mConnects *telemetry.Counter
	mResets   *telemetry.Counter
	mROAs     *telemetry.Gauge
	mSerial   *telemetry.Gauge
}

// NewClient returns a client; drive it with Run.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Addr == "" {
		return nil, fmt.Errorf("rpki: rtr client requires an address")
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("rpki: rtr client requires a store")
	}
	if cfg.ReconnectBase <= 0 {
		cfg.ReconnectBase = time.Second
	}
	if cfg.ReconnectMax <= 0 {
		cfg.ReconnectMax = 30 * time.Second
	}
	if cfg.Dial == nil {
		var d net.Dialer
		cfg.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	r := cfg.Registry
	if r == nil {
		r = telemetry.NewRegistry("moas")
	}
	return &Client{
		cfg:       cfg,
		jit:       backoff.NewJitter(cfg.Seed),
		mConnects: r.Counter("rpki_rtr_connects_total", "RTR cache connections established."),
		mResets:   r.Counter("rpki_rtr_resets_total", "Full cache resyncs (reset queries answered)."),
		mROAs:     r.Gauge("rpki_roas", "ROAs currently held in the validated store."),
		mSerial:   r.Gauge("rpki_rtr_serial", "Last cache serial acknowledged by EndOfData."),
	}, nil
}

// Synced reports whether at least one end-of-data has landed — i.e.
// the store has held a complete cache snapshot at some point.
func (c *Client) Synced() bool { return c.everSynced.Load() }

// Run dials and re-dials the cache until ctx is canceled. Connection
// loss at any point is just another backoff-and-retry; a session that
// reached end-of-data resets the backoff.
func (c *Client) Run(ctx context.Context) error {
	attempt := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		conn, err := c.cfg.Dial(ctx, c.cfg.Addr)
		if err == nil {
			c.mConnects.Inc()
			if c.session(ctx, conn) {
				attempt = 0
			}
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		delay := c.jit.Delay(c.cfg.ReconnectBase, c.cfg.ReconnectMax, attempt)
		attempt++
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// session runs one connection until it breaks, reporting whether any
// end-of-data was reached (i.e. the session did useful work).
func (c *Client) session(ctx context.Context, conn net.Conn) (progressed bool) {
	defer conn.Close()
	unhook := context.AfterFunc(ctx, func() { conn.Close() })
	defer unhook()

	br := bufio.NewReaderSize(conn, 4<<10)
	var scratch [maxPDULen]byte
	var wbuf []byte
	sendQuery := func() error {
		q := pdu{typ: pduResetQuery}
		if c.synced {
			q = pdu{typ: pduSerialQuery, serial: c.serial}
		}
		wbuf = appendPDU(wbuf[:0], q)
		_, err := conn.Write(wbuf)
		return err
	}
	if sendQuery() != nil {
		return false
	}

	var full []ROA      // accumulates a full (post-reset-query) response
	inResponse := false // between CacheResponse and EndOfData
	fullResponse := false
	pendingNotify := false
	for {
		p, err := readPDU(br, &scratch)
		if err != nil {
			return progressed
		}
		switch p.typ {
		case pduCacheResponse:
			inResponse = true
			fullResponse = !c.synced
			full = full[:0]
		case pduPrefix:
			if !inResponse {
				return progressed // protocol violation; reconnect
			}
			switch {
			case fullResponse:
				if !p.withdraw {
					full = append(full, p.roa)
				}
			case p.withdraw:
				c.cfg.Store.Remove(p.roa)
			default:
				c.cfg.Store.Add(p.roa)
			}
		case pduEndOfData:
			if !inResponse {
				return progressed
			}
			if fullResponse {
				c.cfg.Store.ReplaceAll(full)
				c.mResets.Inc()
			}
			inResponse = false
			c.serial = p.serial
			c.synced = true
			c.everSynced.Store(true)
			progressed = true
			c.mROAs.Set(int64(c.cfg.Store.Len()))
			c.mSerial.Set(int64(p.serial))
			if pendingNotify {
				pendingNotify = false
				if sendQuery() != nil {
					return progressed
				}
			}
		case pduCacheReset:
			// The server can't produce deltas from our serial; fall back
			// to a full resync on the same connection.
			c.synced = false
			if sendQuery() != nil {
				return progressed
			}
		case pduSerialNotify:
			if inResponse {
				pendingNotify = true
			} else if p.serial != c.serial || !c.synced {
				if sendQuery() != nil {
					return progressed
				}
			}
		case pduError:
			return progressed
		}
	}
}
