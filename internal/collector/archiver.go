package collector

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/routegen"
	"repro/internal/telemetry"
)

// Archiver periodically snapshots a Collector to MRT table-dump files on
// disk — the daily archive of the real Route Views server. It only
// archives: the collector's monitor checks each UPDATE when it arrives.
type Archiver struct {
	collector *Collector
	dir       string
	interval  time.Duration
	now       func() time.Time // stamps snapshots; tests replace it

	// Archive instrumentation, registered on the collector's registry.
	dumpsWritten  *telemetry.Counter
	bytesArchived *telemetry.Counter
	writeErrors   *telemetry.Counter

	mu       sync.Mutex
	written  []string // guarded by mu
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	started  bool // guarded by mu
}

// NewArchiver builds an archiver writing snapshots of c into dir every
// interval.
func NewArchiver(c *Collector, dir string, interval time.Duration) (*Archiver, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("collector: archive interval %v", interval)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("collector: archive dir: %w", err)
	}
	return &Archiver{
		collector: c,
		dir:       dir,
		interval:  interval,
		now:       time.Now,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		dumpsWritten: c.reg.Counter("archiver_dumps_written_total",
			"Snapshot dump files written to the archive directory."),
		bytesArchived: c.reg.Counter("archiver_bytes_archived_total",
			"Bytes of dump data written to the archive directory."),
		writeErrors: c.reg.Counter("archiver_write_errors_total",
			"Snapshot writes that failed (disk trouble; the next tick retries)."),
	}, nil
}

// SnapshotNow takes and writes one snapshot immediately, returning the
// file path.
func (a *Archiver) SnapshotNow() (string, error) {
	name, err := a.snapshotNow()
	if err != nil {
		a.writeErrors.Inc()
	}
	return name, err
}

func (a *Archiver) snapshotNow() (string, error) {
	d := a.collector.Snapshot(a.now())
	name := filepath.Join(a.dir, fmt.Sprintf("dump-%05d-%s.mrt",
		d.Day, d.Date.UTC().Format("20060102T150405Z")))
	f, err := os.Create(name)
	if err != nil {
		return "", fmt.Errorf("collector: create snapshot: %w", err)
	}
	// Count archived bytes where they leave the process, so the metric
	// covers exactly what landed in the dump file.
	cw := &countingWriter{w: f}
	if err := routegen.WriteMRT(cw, d); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	a.dumpsWritten.Inc()
	a.bytesArchived.Add(uint64(cw.n))
	a.mu.Lock()
	a.written = append(a.written, name)
	a.mu.Unlock()
	return name, nil
}

// countingWriter counts bytes successfully handed to the underlying
// writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Start begins periodic snapshotting; stop with Close. Start is
// one-shot.
func (a *Archiver) Start() error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return fmt.Errorf("collector: archiver already started")
	}
	a.started = true
	a.mu.Unlock()
	go func() {
		defer close(a.done)
		ticker := time.NewTicker(a.interval)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				if _, err := a.SnapshotNow(); err != nil {
					// Disk trouble should not kill the collector; the
					// next tick retries.
					continue
				}
			case <-a.stop:
				return
			}
		}
	}()
	return nil
}

// Written returns the snapshot files produced so far.
func (a *Archiver) Written() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, len(a.written))
	copy(out, a.written)
	return out
}

// Close stops the periodic snapshotting (if started) and waits for the
// worker to exit.
func (a *Archiver) Close() error {
	a.stopOnce.Do(func() { close(a.stop) })
	a.mu.Lock()
	started := a.started
	a.mu.Unlock()
	if started {
		<-a.done
	}
	return nil
}
