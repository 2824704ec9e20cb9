// Package daemon assembles a deployable MOAS-validating BGP speaker
// from a declarative JSON configuration: peering sessions, originated
// prefixes with their MOAS lists, route aggregates, a local MOASRR
// database for alarm resolution, and an optional admin endpoint serving
// the §4.2 MIB view at /debug/mib. cmd/moas-speaker is a thin wrapper around this
// package.
package daemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/astypes"
	"repro/internal/backoff"
	"repro/internal/core"
	"repro/internal/dnsval"
	"repro/internal/obs"
	"repro/internal/rpki"
	"repro/internal/speaker"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config is the on-disk daemon configuration.
type Config struct {
	// AS and RouterID identify the speaker.
	AS       uint32 `json:"as"`
	RouterID uint32 `json:"routerID"`
	// Validation is "off", "alarm" or "drop".
	Validation string `json:"validation"`
	// HoldTimeSeconds for sessions (0 selects the default).
	HoldTimeSeconds int `json:"holdTimeSeconds"`
	// Listen addresses accept inbound peerings ("host:port").
	Listen []string `json:"listen"`
	// MetricsAddr, if set, serves the operator surface (obs.Serve):
	// /metrics, /healthz, /readyz, /debug/status, and the MIB JSON at
	// /debug/mib, which moas-collector reads as a source.
	MetricsAddr string `json:"metricsAddr"`
	// TraceEvents, when nonzero, enables the flight recorder with a ring
	// of (about) that many events; /debug/trace and /debug/alarms appear
	// on the admin endpoint. Sizes round up to a power of two.
	TraceEvents int `json:"traceEvents"`
	// Pprof mounts net/http/pprof under /debug/pprof/ on the admin
	// endpoint.
	Pprof bool `json:"pprof"`
	// Peers to dial.
	Peers []PeerConfig `json:"peers"`
	// Originate lists locally announced prefixes.
	Originate []OriginateConfig `json:"originate"`
	// Aggregates configures route aggregation.
	Aggregates []AggregateConfig `json:"aggregates"`
	// MOASRR seeds the local origin-authorization database used to
	// resolve alarms under "drop" validation.
	MOASRR []MOASRRConfig `json:"moasrr"`
	// ImportDeny lists prefixes (and their more-specifics) rejected on
	// import — bogon filtering.
	ImportDeny []string `json:"importDeny"`
	// ListEncoding is "communities" (default) or "attribute".
	ListEncoding string `json:"listEncoding"`
	// ReconnectSeconds, when nonzero, re-dials configured peers whose
	// sessions drop. It is the base of a capped exponential backoff
	// with jitter: attempt n waits between 2ⁿ·base/2 and 2ⁿ·base, and
	// the wait stops growing at 16× the base.
	ReconnectSeconds int `json:"reconnectSeconds"`
	// ROAFile seeds the RPKI validated-ROA store from a text file
	// (prefix=origin[@maxlen],... — see internal/rpki.Parse). Any ROA
	// source turns on ROV cross-validation of MOAS alarms.
	ROAFile string `json:"roaFile"`
	// ROAs seeds the store from inline records.
	ROAs []ROAConfig `json:"roas"`
	// RTRAddr, if set, keeps the store synchronized from an RTR-style
	// cache server ("host:port") with the daemon's reconnect backoff.
	RTRAddr string `json:"rtrAddr"`
}

// PeerConfig is one outbound peering.
type PeerConfig struct {
	Addr string `json:"addr"`
	AS   uint32 `json:"as"`
}

// OriginateConfig is one locally originated prefix.
type OriginateConfig struct {
	Prefix string `json:"prefix"`
	// MOASList is the set of entitled origins; empty means implicit
	// (this AS only).
	MOASList []uint32 `json:"moasList"`
}

// AggregateConfig is one configured aggregate.
type AggregateConfig struct {
	Prefix      string `json:"prefix"`
	SummaryOnly bool   `json:"summaryOnly"`
}

// MOASRRConfig is one origin-authorization record.
type MOASRRConfig struct {
	Prefix  string   `json:"prefix"`
	Origins []uint32 `json:"origins"`
}

// ROAConfig is one inline ROA: every listed origin is authorized for
// the prefix up to maxLen (the prefix's own length when zero).
type ROAConfig struct {
	Prefix  string   `json:"prefix"`
	MaxLen  uint8    `json:"maxLen"`
	Origins []uint32 `json:"origins"`
}

// Load parses a configuration from r.
func Load(r io.Reader) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("daemon: parse config: %w", err)
	}
	if err := cfg.validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// LoadFile parses a configuration file.
func LoadFile(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, fmt.Errorf("daemon: open config: %w", err)
	}
	defer f.Close()
	return Load(f)
}

func (c Config) validate() error {
	if c.AS == 0 {
		return fmt.Errorf("daemon: config requires a nonzero AS")
	}
	switch c.Validation {
	case "", "off", "alarm", "drop":
	default:
		return fmt.Errorf("daemon: validation %q (want off, alarm or drop)", c.Validation)
	}
	for _, o := range c.Originate {
		if _, err := astypes.ParsePrefix(o.Prefix); err != nil {
			return fmt.Errorf("daemon: originate: %w", err)
		}
	}
	for _, a := range c.Aggregates {
		if _, err := astypes.ParsePrefix(a.Prefix); err != nil {
			return fmt.Errorf("daemon: aggregate: %w", err)
		}
	}
	for _, r := range c.MOASRR {
		if _, err := astypes.ParsePrefix(r.Prefix); err != nil {
			return fmt.Errorf("daemon: moasrr: %w", err)
		}
		if len(r.Origins) == 0 {
			return fmt.Errorf("daemon: moasrr record %s with no origins", r.Prefix)
		}
	}
	for _, d := range c.ImportDeny {
		if _, err := astypes.ParsePrefix(d); err != nil {
			return fmt.Errorf("daemon: importDeny: %w", err)
		}
	}
	switch c.ListEncoding {
	case "", "communities", "attribute":
	default:
		return fmt.Errorf("daemon: listEncoding %q (want communities or attribute)", c.ListEncoding)
	}
	if c.TraceEvents < 0 {
		return fmt.Errorf("daemon: negative traceEvents")
	}
	if c.ReconnectSeconds < 0 {
		return fmt.Errorf("daemon: negative reconnect interval")
	}
	for _, r := range c.ROAs {
		prefix, err := astypes.ParsePrefix(r.Prefix)
		if err != nil {
			return fmt.Errorf("daemon: roa: %w", err)
		}
		if len(r.Origins) == 0 {
			return fmt.Errorf("daemon: roa %s with no origins", r.Prefix)
		}
		if r.MaxLen != 0 && (r.MaxLen < prefix.Len || r.MaxLen > 32) {
			return fmt.Errorf("daemon: roa %s maxLen %d out of [%d, 32]", r.Prefix, r.MaxLen, prefix.Len)
		}
	}
	return nil
}

func (c Config) validationMode() speaker.ValidationMode {
	switch c.Validation {
	case "alarm":
		return speaker.ValidationAlarm
	case "drop":
		return speaker.ValidationDrop
	default:
		return speaker.ValidationOff
	}
}

// Daemon is a running configured speaker.
type Daemon struct {
	Speaker *speaker.Speaker
	Store   *dnsval.Store
	// RPKI is the validated ROA store, nil unless an ROA source
	// (roaFile, roas or rtrAddr) is configured.
	RPKI *rpki.Store

	reg   *telemetry.Registry
	admin *obs.Surface    // nil without an admin endpoint
	trace *trace.Recorder // nil when tracing is disabled
	// obsRec is the detection-latency observatory; always on (the
	// record path costs nanoseconds, and /debug/status serves it when
	// the admin endpoint is enabled).
	obsRec *obs.Recorder
	// ready aggregates the daemon's readiness probes for /readyz.
	ready *telemetry.Readiness

	listenAddrs []string

	peerAddrs    map[astypes.ASN]string
	reconnect    time.Duration   // backoff base; zero disables re-dialing
	reconnectMax time.Duration   // backoff cap: 16× the base
	jitter       *backoff.Jitter // shared by every re-dial goroutine
	stop         chan struct{}
	stopOnce     sync.Once
	rtrCancel    context.CancelFunc // stops the RTR client; nil without one

	// Daemon-level instrumentation.
	peerUp            *telemetry.Counter
	peerDownCtr       *telemetry.Counter
	reconnectAttempts *telemetry.Counter

	mu      sync.Mutex
	closing bool // guarded by mu

	wg sync.WaitGroup
}

// Build constructs and starts the daemon: the MOASRR store, the
// speaker, listeners, outbound peerings, originations and aggregates,
// and the admin endpoint. onAlarm, if non-nil, is the speaker's
// OnAlarm hook: it runs under the speaker's lock, so it must only log.
func Build(cfg Config, onAlarm func(core.Conflict)) (*Daemon, error) {
	store := dnsval.NewStore()
	for _, rec := range cfg.MOASRR {
		prefix, err := astypes.ParsePrefix(rec.Prefix)
		if err != nil {
			return nil, err
		}
		store.Register(prefix, core.NewList(asnsOf(rec.Origins)...))
	}

	reg := telemetry.NewRegistry("moas")
	telemetry.RegisterBuildInfo(reg)
	var rec *trace.Recorder
	if cfg.TraceEvents > 0 {
		rec = trace.NewRecorder(cfg.TraceEvents)
	}
	d := &Daemon{
		Store:        store,
		reg:          reg,
		trace:        rec,
		peerAddrs:    make(map[astypes.ASN]string, len(cfg.Peers)),
		reconnect:    time.Duration(cfg.ReconnectSeconds) * time.Second,
		reconnectMax: 16 * time.Duration(cfg.ReconnectSeconds) * time.Second,
		jitter:       backoff.NewJitter(0),
		stop:         make(chan struct{}),
		peerUp: reg.Counter("daemon_peer_up_total",
			"Outbound peer sessions successfully established (initial dials and re-dials)."),
		peerDownCtr: reg.Counter("daemon_peer_down_total",
			"Peer sessions that went down."),
		reconnectAttempts: reg.Counter("daemon_reconnect_attempts_total",
			"Re-dial attempts made for dropped configured peers."),
		obsRec: obs.NewRecorder(),
		ready:  &telemetry.Readiness{},
	}
	var deny []astypes.Prefix
	for _, ds := range cfg.ImportDeny {
		prefix, err := astypes.ParsePrefix(ds)
		if err != nil {
			return nil, err
		}
		deny = append(deny, prefix)
	}
	encoding := speaker.EncodeCommunities
	if cfg.ListEncoding == "attribute" {
		encoding = speaker.EncodeAttribute
	}
	var inline []rpki.ROA
	for _, rc := range cfg.ROAs {
		prefix, err := astypes.ParsePrefix(rc.Prefix)
		if err != nil {
			return nil, err
		}
		for _, o := range rc.Origins {
			inline = append(inline, rpki.ROA{Prefix: prefix, MaxLen: rc.MaxLen, Origin: astypes.ASN(o)})
		}
	}
	roas, rtr, err := rpki.Open(cfg.ROAFile, inline, rpki.ClientConfig{
		Addr:          cfg.RTRAddr,
		ReconnectBase: d.reconnect,
		ReconnectMax:  d.reconnectMax,
		Registry:      reg,
	})
	if err != nil {
		return nil, err
	}
	d.RPKI = roas
	spkCfg := speaker.Config{
		AS:           astypes.ASN(cfg.AS),
		RouterID:     cfg.RouterID,
		Validation:   cfg.validationMode(),
		Resolver:     store,
		HoldTime:     time.Duration(cfg.HoldTimeSeconds) * time.Second,
		ImportDeny:   deny,
		ListEncoding: encoding,
		Telemetry:    reg,
		Trace:        rec,
		RPKI:         d.RPKI,
		Obs:          d.obsRec,
		OnAlarm:      onAlarm,
		// Always observe peer-down events (the counter fires regardless);
		// peerDown gates the re-dial loop itself on d.reconnect > 0.
		OnPeerDown: d.peerDown,
	}
	s, err := speaker.New(spkCfg)
	if err != nil {
		return nil, err
	}
	d.Speaker = s

	cleanup := func() {
		if d.rtrCancel != nil {
			d.rtrCancel()
			d.wg.Wait()
		}
		s.Close()
	}

	for _, addr := range cfg.Listen {
		ln, err := net.Listen("tcp", addr)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("daemon: listen %s: %w", addr, err)
		}
		d.listenAddrs = append(d.listenAddrs, ln.Addr().String())
		s.Listen(ln)
	}
	for _, o := range cfg.Originate {
		prefix, err := astypes.ParsePrefix(o.Prefix)
		if err != nil {
			cleanup()
			return nil, err
		}
		s.Originate(prefix, core.NewList(asnsOf(o.MOASList)...))
	}
	for _, a := range cfg.Aggregates {
		prefix, err := astypes.ParsePrefix(a.Prefix)
		if err != nil {
			cleanup()
			return nil, err
		}
		if err := s.ConfigureAggregate(prefix, a.SummaryOnly); err != nil {
			cleanup()
			return nil, err
		}
	}
	for _, p := range cfg.Peers {
		d.peerAddrs[astypes.ASN(p.AS)] = p.Addr
		if err := s.Connect(p.Addr, astypes.ASN(p.AS)); err != nil {
			cleanup()
			return nil, err
		}
		d.peerUp.Inc()
	}
	if rtr != nil {
		// A daemon that cross-validates against an RTR cache is not
		// serving trustworthy verdicts until the first sync lands.
		d.ready.Register("rtr", rtr.Synced, "cache not synced")
		ctx, cancel := context.WithCancel(context.Background())
		d.rtrCancel = cancel
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			rtr.Run(ctx)
		}()
	}
	if cfg.MetricsAddr != "" {
		admin, err := obs.Serve(cfg.MetricsAddr, obs.SurfaceConfig{
			Registry: reg,
			Ready:    d.ready,
			Stages:   d.obsRec,
			Trace:    rec,
			MIB:      s,
			Pprof:    cfg.Pprof,
		})
		if err != nil {
			cleanup()
			return nil, err
		}
		d.admin = admin
	}
	return d, nil
}

// MetricsAddr returns the bound admin endpoint address ("" when
// disabled).
func (d *Daemon) MetricsAddr() string { return d.admin.Addr() }

// ListenAddrs returns the bound inbound-peering listener addresses in
// configuration order (resolved, so ":0" configs report real ports).
func (d *Daemon) ListenAddrs() []string {
	out := make([]string, len(d.listenAddrs))
	copy(out, d.listenAddrs)
	return out
}

// Obs returns the daemon's detection-latency recorder (always non-nil).
func (d *Daemon) Obs() *obs.Recorder { return d.obsRec }

// peerDown counts the loss and, when reconnection is configured,
// schedules re-dialing of a configured outbound peer.
func (d *Daemon) peerDown(peer astypes.ASN) {
	d.peerDownCtr.Inc()
	addr, configured := d.peerAddrs[peer]
	if !configured || d.reconnect <= 0 {
		return
	}
	// Add under mu with the closing check: peerDown runs on a session
	// goroutine, so an unguarded Add races Close's Wait.
	d.mu.Lock()
	if d.closing {
		d.mu.Unlock()
		return
	}
	d.wg.Add(1)
	d.mu.Unlock()
	go func() {
		defer d.wg.Done()
		attempt := 0
		timer := time.NewTimer(d.jitter.Delay(d.reconnect, d.reconnectMax, attempt))
		defer timer.Stop()
		for {
			select {
			case <-d.stop:
				return
			case <-timer.C:
			}
			d.reconnectAttempts.Inc()
			if err := d.Speaker.Connect(addr, peer); err == nil {
				d.peerUp.Inc()
				return
			}
			attempt++
			timer.Reset(d.jitter.Delay(d.reconnect, d.reconnectMax, attempt))
		}
	}()
}

// Close shuts the daemon down.
func (d *Daemon) Close() error {
	d.mu.Lock()
	d.closing = true
	d.mu.Unlock()
	d.stopOnce.Do(func() { close(d.stop) })
	if d.rtrCancel != nil {
		d.rtrCancel()
	}
	err := d.Speaker.Close()
	d.wg.Wait()
	if cerr := d.admin.Close(); err == nil {
		err = cerr
	}
	return err
}

func asnsOf(in []uint32) []astypes.ASN {
	out := make([]astypes.ASN, len(in))
	for i, v := range in {
		out[i] = astypes.ASN(v)
	}
	return out
}
