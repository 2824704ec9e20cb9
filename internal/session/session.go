// Package session implements the per-peer BGP-4 session machinery over
// a net.Conn: the OPEN handshake, keepalive generation, hold-timer
// supervision, and framed message exchange, following the FSM of RFC
// 4271 §8 in the states a connected transport can reach (OpenSent,
// OpenConfirm, Established).
//
// A Session owns two goroutines (reader and keepalive timer); both are
// joined by Close, so sessions never leak. Incoming UPDATEs are
// delivered to the Handler synchronously from the reader goroutine.
package session

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/astypes"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/wire"
)

// State is the session's FSM state.
type State int32

// FSM states (subset reachable once a transport connection exists).
const (
	StateIdle State = iota + 1
	StateOpenSent
	StateOpenConfirm
	StateEstablished
	StateClosed
)

func (s State) String() string {
	switch s {
	case StateIdle:
		return "Idle"
	case StateOpenSent:
		return "OpenSent"
	case StateOpenConfirm:
		return "OpenConfirm"
	case StateEstablished:
		return "Established"
	case StateClosed:
		return "Closed"
	default:
		return "Unknown"
	}
}

// Handler receives session events. Calls are serialized per session.
type Handler interface {
	// HandleUpdate is invoked for every received UPDATE. The Update is
	// decoded into per-session scratch storage and is valid only for
	// the duration of the call: a handler that retains any part of it
	// (paths, prefixes, communities, unknown-attribute bytes) must copy
	// what it keeps before returning.
	HandleUpdate(peer astypes.ASN, u *wire.Update)
	// HandleDown is invoked exactly once when the session leaves
	// Established (err describes why; nil for a clean local Close).
	HandleDown(peer astypes.ASN, err error)
}

// StampHandler is optionally implemented by Handlers that carry the
// message's stage-timing stamp through the pipeline. When implemented,
// it is invoked for every UPDATE instead of HandleUpdate. The stamp
// always carries the message's span (the per-session ordinal minted by
// wire.Decoder), and its ingest instant when Config.Obs is set. The
// stamp pointer is owned by the session's reader and is valid only for
// the duration of the call, like the Update itself.
type StampHandler interface {
	HandleUpdateStamp(peer astypes.ASN, u *wire.Update, st *obs.Stamp)
}

// Config parameterizes a session.
type Config struct {
	// LocalAS and LocalID identify this speaker.
	LocalAS astypes.ASN
	LocalID uint32
	// PeerAS, if nonzero, is enforced against the peer's OPEN.
	PeerAS astypes.ASN
	// HoldTime proposed in our OPEN; the effective hold time is the
	// minimum of both sides (RFC 4271 §4.2). Zero selects 90s.
	HoldTime time.Duration
	// Handler receives updates and the down event; required.
	Handler Handler
	// Metrics, if set, instruments this session. Typically one Metrics
	// is shared by all sessions of a speaker.
	Metrics *Metrics
	// Trace, if set, records a flight-recorder event per received
	// UPDATE. Nil (or a disabled recorder) adds nothing to the receive
	// path beyond one nil check / atomic load.
	Trace *trace.Recorder
	// Obs, if set, stamps each message's ingest instant at the wire
	// reader and records decode/session stage latencies; the stamp is
	// passed on to a StampHandler when the Handler implements one.
	Obs *obs.Recorder
}

// Errors surfaced by session establishment and supervision.
var (
	ErrHoldTimerExpired = errors.New("hold timer expired")
	ErrPeerASMismatch   = errors.New("peer AS mismatch")
	ErrClosed           = errors.New("session closed")
)

// NotificationError reports a NOTIFICATION received from the peer.
type NotificationError struct {
	Code    uint8
	Subcode uint8
}

func (e *NotificationError) Error() string {
	return fmt.Sprintf("peer sent NOTIFICATION code %d subcode %d", e.Code, e.Subcode)
}

// Session is one established BGP session.
type Session struct {
	conn     net.Conn
	cfg      Config
	met      *Metrics // nil disables instrumentation
	peerAS   astypes.ASN
	peerID   uint32
	holdTime time.Duration

	// kaSentAt holds the UnixNano timestamp of the oldest KEEPALIVE we
	// sent that has not yet been answered by a peer KEEPALIVE (0 =
	// none outstanding) — the basis of the approximate keepalive RTT.
	kaSentAt atomic.Int64

	// writeMu serializes all writes on conn: keepalives, updates, and
	// teardown notifications interleave frames without it.
	writeMu sync.Mutex
	// bw buffers outgoing messages so bursts coalesce into fewer conn
	// writes and the encode path stays allocation-free. Guarded by
	// writeMu; every writeMu critical section must Flush before
	// releasing, or the peer never sees the messages.
	bw *wire.Writer
	// rd frames and decodes incoming messages into reusable scratch.
	// Used only by the handshake and then the reader goroutine, which
	// are sequential, never concurrent.
	rd *wire.Reader
	// stampH is cfg.Handler's StampHandler face, resolved once at
	// Establish so the read loop pays no per-message type assertion.
	stampH StampHandler

	mu    sync.Mutex
	state State // guarded by mu
	err   error // guarded by mu

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{} // reader goroutine exited
	kaDone   chan struct{} // keepalive goroutine exited
	downOnce sync.Once
}

// Establish runs the OPEN handshake on conn and starts the session
// goroutines. On error the connection is closed.
func Establish(conn net.Conn, cfg Config) (*Session, error) {
	if cfg.Handler == nil {
		conn.Close()
		return nil, errors.New("session: nil handler")
	}
	holdTime := cfg.HoldTime
	if holdTime == 0 {
		holdTime = 90 * time.Second
	}
	s := &Session{
		conn:     conn,
		cfg:      cfg,
		met:      cfg.Metrics,
		holdTime: holdTime,
		state:    StateOpenSent,
		bw:       wire.NewWriter(conn),
		rd:       wire.NewReader(conn),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		kaDone:   make(chan struct{}),
	}
	s.stampH, _ = cfg.Handler.(StampHandler)
	s.rd.SetObserver(cfg.Obs)
	if err := s.handshake(); err != nil {
		s.met.handshakeFailed()
		conn.Close()
		return nil, err
	}
	s.setState(StateEstablished)
	go s.readLoop()
	go s.keepaliveLoop()
	return s, nil
}

func (s *Session) handshake() error {
	open := &wire.Open{
		Version:  wire.Version4,
		AS:       s.cfg.LocalAS,
		HoldTime: uint16(s.holdTime / time.Second),
		BGPID:    s.cfg.LocalID,
	}
	// Handshake sends run concurrently with the matching reads: both
	// peers write their OPEN (and later KEEPALIVE) at the same moment,
	// which deadlocks on an unbuffered transport (net.Pipe) if done
	// synchronously. On error paths the caller closes the connection,
	// which unblocks a stuck writer.
	openSent := make(chan error, 1)
	go func() {
		s.writeMu.Lock()
		defer s.writeMu.Unlock()
		err := s.writeLocked(open)
		if err == nil {
			s.met.sentMsg(wire.MsgOpen)
		}
		openSent <- err
	}()
	deadline := time.Now().Add(s.holdTime)
	if err := s.conn.SetReadDeadline(deadline); err != nil {
		return fmt.Errorf("session: set handshake deadline: %w", err)
	}
	msg, err := s.rd.ReadMessage()
	if err != nil {
		return fmt.Errorf("session: read OPEN: %w", err)
	}
	s.met.recvMsg(msg.Type())
	if err := <-openSent; err != nil {
		return fmt.Errorf("session: send OPEN: %w", err)
	}
	peerOpen, ok := msg.(*wire.Open)
	if !ok {
		s.sendNotification(wire.ErrCodeFSM, 0)
		return fmt.Errorf("session: expected OPEN, got %s", msg.Type())
	}
	if s.cfg.PeerAS != astypes.ASNNone && peerOpen.AS != s.cfg.PeerAS {
		s.sendNotification(wire.ErrCodeOpen, wire.SubBadPeerAS)
		return fmt.Errorf("session: %w: want AS %s, got AS %s", ErrPeerASMismatch, s.cfg.PeerAS, peerOpen.AS)
	}
	s.peerAS = peerOpen.AS
	s.peerID = peerOpen.BGPID
	if peerHold := time.Duration(peerOpen.HoldTime) * time.Second; peerHold > 0 && peerHold < s.holdTime {
		s.holdTime = peerHold
	} else if peerOpen.HoldTime == 0 {
		// Zero disables keepalives entirely (RFC 4271 §4.2).
		s.holdTime = 0
	}
	s.setState(StateOpenConfirm)
	kaSent := make(chan error, 1)
	go func() {
		s.writeMu.Lock()
		defer s.writeMu.Unlock()
		err := s.writeLocked(&wire.Keepalive{})
		if err == nil {
			s.met.sentMsg(wire.MsgKeepalive)
		}
		kaSent <- err
	}()
	if err := s.conn.SetReadDeadline(s.readDeadline()); err != nil {
		return fmt.Errorf("session: set deadline: %w", err)
	}
	msg, err = s.rd.ReadMessage()
	if err != nil {
		return fmt.Errorf("session: read confirm KEEPALIVE: %w", err)
	}
	s.met.recvMsg(msg.Type())
	if err := <-kaSent; err != nil {
		return fmt.Errorf("session: send KEEPALIVE: %w", err)
	}
	switch m := msg.(type) {
	case *wire.Keepalive:
		return nil
	case *wire.Notification:
		return &NotificationError{Code: m.Code, Subcode: m.Subcode}
	default:
		s.sendNotification(wire.ErrCodeFSM, 0)
		return fmt.Errorf("session: expected KEEPALIVE, got %s", msg.Type())
	}
}

func (s *Session) readDeadline() time.Time {
	if s.holdTime == 0 {
		return time.Time{}
	}
	return time.Now().Add(s.holdTime)
}

// PeerAS returns the AS number the peer declared in its OPEN.
func (s *Session) PeerAS() astypes.ASN { return s.peerAS }

// PeerID returns the peer's BGP identifier.
func (s *Session) PeerID() uint32 { return s.peerID }

// HoldTime returns the negotiated hold time (zero = disabled).
func (s *Session) HoldTime() time.Duration { return s.holdTime }

// State returns the current FSM state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Err returns the error that took the session down, if any.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Session) setState(st State) {
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// writeLocked encodes m into the buffered writer and flushes it out.
// Callers must hold writeMu.
func (s *Session) writeLocked(m wire.Message) error {
	if err := s.bw.WriteMessage(m); err != nil {
		return err
	}
	return s.bw.Flush()
}

// SendUpdate transmits one UPDATE message.
func (s *Session) SendUpdate(u *wire.Update) error {
	if s.State() != StateEstablished {
		return ErrClosed
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.writeLocked(u); err != nil {
		return fmt.Errorf("session: send UPDATE to AS %s: %w", s.peerAS, err)
	}
	s.met.sentMsg(wire.MsgUpdate)
	return nil
}

// SendUpdates transmits a batch of UPDATE messages under one writeMu
// acquisition, letting the buffered writer coalesce them into as few
// connection writes as possible (a route burst after session-up).
// Returns on the first encode/write error with the number of messages
// already accepted.
func (s *Session) SendUpdates(us []*wire.Update) (int, error) {
	if s.State() != StateEstablished {
		return 0, ErrClosed
	}
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	for i, u := range us {
		if err := s.bw.WriteMessage(u); err != nil {
			return i, fmt.Errorf("session: send UPDATE batch to AS %s: %w", s.peerAS, err)
		}
		s.met.sentMsg(wire.MsgUpdate)
	}
	if err := s.bw.Flush(); err != nil {
		return 0, fmt.Errorf("session: flush UPDATE batch to AS %s: %w", s.peerAS, err)
	}
	return len(us), nil
}

func (s *Session) sendKeepalive() error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.writeLocked(&wire.Keepalive{}); err != nil {
		return fmt.Errorf("session: send KEEPALIVE to AS %s: %w", s.peerAS, err)
	}
	s.met.sentMsg(wire.MsgKeepalive)
	// Start an RTT measurement unless one is already outstanding: the
	// oldest unanswered keepalive keeps the baseline.
	s.kaSentAt.CompareAndSwap(0, time.Now().UnixNano())
	return nil
}

func (s *Session) sendNotification(code, sub uint8) {
	// A peer that has stopped reading can leave another writer blocked
	// while holding writeMu (e.g. the keepalive sender); bound every
	// in-flight and upcoming write so this call cannot deadlock the
	// teardown path. Best effort; the session is coming down anyway.
	_ = s.conn.SetWriteDeadline(time.Now().Add(200 * time.Millisecond))
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	if err := s.writeLocked(&wire.Notification{Code: code, Subcode: sub}); err == nil {
		s.met.sentMsg(wire.MsgNotification)
	}
}

func (s *Session) readLoop() {
	defer close(s.done)
	for {
		// The hold timer bounds the delivery of each whole message: the
		// deadline is armed once per message that is not yet fully
		// buffered, never per Read, so a peer dribbling a message
		// byte by byte still times out.
		if !s.rd.Buffered() {
			if err := s.conn.SetReadDeadline(s.readDeadline()); err != nil {
				s.goDown(err)
				return
			}
		}
		msg, err := s.rd.ReadMessage()
		if err != nil {
			select {
			case <-s.stop:
				s.goDown(nil)
			default:
				var ne net.Error
				if errors.As(err, &ne) && ne.Timeout() {
					s.sendNotification(wire.ErrCodeHoldTimer, 0)
					err = ErrHoldTimerExpired
				}
				var me *wire.MessageError
				if errors.As(err, &me) {
					s.sendNotification(me.Code, me.Subcode)
				}
				s.goDown(err)
			}
			return
		}
		s.met.recvMsg(msg.Type())
		switch m := msg.(type) {
		case *wire.Update:
			s.recordRecv(m)
			// The session stage covers decode completion → handler
			// dispatch (metrics/trace bookkeeping above included).
			st := s.rd.Stamp()
			s.cfg.Obs.Cross(st, obs.StageSession)
			if s.stampH != nil {
				s.stampH.HandleUpdateStamp(s.peerAS, m, st)
			} else {
				s.cfg.Handler.HandleUpdate(s.peerAS, m)
			}
		case *wire.RouteRefresh:
			// Our OPEN advertises no Route Refresh capability, so RFC
			// 2918 §5 has the request ignored: counted above, and
			// nothing is re-advertised.
		case *wire.Keepalive:
			// Receipt already refreshed the hold timer. Close out an
			// outstanding RTT measurement: the peer's keepalive timer
			// makes this a round-trip proxy, not a true echo.
			if t0 := s.kaSentAt.Swap(0); t0 != 0 {
				s.met.observeKeepaliveRTT(time.Duration(time.Now().UnixNano() - t0))
			}
		case *wire.Notification:
			s.goDown(&NotificationError{Code: m.Code, Subcode: m.Subcode})
			return
		case *wire.Open:
			s.sendNotification(wire.ErrCodeFSM, 0)
			s.goDown(errors.New("session: OPEN received in Established"))
			return
		}
	}
}

// recordRecv captures the flight-recorder event for one received
// UPDATE: the first announced (or, failing that, withdrawn) prefix
// identifies the message, Aux carries the total route count, and a
// pure withdrawal is flagged as such.
func (s *Session) recordRecv(u *wire.Update) {
	if !s.cfg.Trace.Enabled() {
		return
	}
	e := trace.Event{
		Span: s.rd.Span(),
		Kind: trace.KindRecv,
		Node: s.cfg.LocalAS,
		Peer: s.peerAS,
		Aux:  uint32(len(u.NLRI) + len(u.Withdrawn)),
	}
	if len(u.NLRI) > 0 {
		e.Prefix = u.NLRI[0]
		if origin, ok := u.Attrs.ASPath.Origin(); ok {
			e.Origin = origin
		}
	} else if len(u.Withdrawn) > 0 {
		e.Prefix = u.Withdrawn[0]
		e.Detail = trace.DetailWithdrawal
	}
	s.cfg.Trace.Record(e)
}

func (s *Session) keepaliveLoop() {
	defer close(s.kaDone)
	if s.holdTime == 0 {
		return
	}
	interval := s.holdTime / 3
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			if err := s.sendKeepalive(); err != nil {
				return
			}
		case <-s.stop:
			return
		}
	}
}

func (s *Session) goDown(err error) {
	s.mu.Lock()
	if s.state != StateClosed {
		s.state = StateClosed
		s.err = err
	}
	s.mu.Unlock()
	s.conn.Close()
	s.downOnce.Do(func() {
		s.cfg.Handler.HandleDown(s.peerAS, err)
	})
}

// Close sends a Cease NOTIFICATION, tears the session down, and waits
// for both goroutines to exit. Safe to call multiple times.
func (s *Session) Close() error {
	s.mu.Lock()
	alreadyClosed := s.state == StateClosed
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stop) })
	if !alreadyClosed {
		s.sendNotification(wire.ErrCodeCease, 0)
	}
	s.conn.Close()
	<-s.done
	<-s.kaDone
	return nil
}
