package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// cpuProfile captures a runtime/pprof CPU profile into memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// stop ends the profile and folds it into flat CPU share per bucket of
// cpuSharePkgs, in percent of all samples.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	flat, err := flatByFunction(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(cpuSharePkgs))
	var total float64
	for fn, v := range flat {
		shares[shareBucket(fn)] += v
		total += v
	}
	if total > 0 {
		for k := range shares {
			shares[k] *= 100 / total
		}
	}
	return shares, nil
}

// shareBucket maps a leaf function name to its cpu_share bucket.
func shareBucket(fn string) string {
	const internal = "repro/internal/"
	if rest, ok := strings.CutPrefix(fn, internal); ok {
		pkg := rest
		if i := strings.IndexAny(rest, ".("); i >= 0 {
			pkg = rest[:i]
		}
		pkg = pkg[strings.LastIndex(pkg, "/")+1:] // mrt/rislive → rislive
		for _, known := range cpuSharePkgs {
			if pkg == known {
				return pkg
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "internal/runtime/maps."), strings.HasPrefix(fn, "runtime.map"),
		strings.HasPrefix(fn, "aeshash"), strings.HasPrefix(fn, "runtime.aeshash"),
		strings.HasPrefix(fn, "runtime.memhash"), strings.HasPrefix(fn, "type:.eq."), strings.HasPrefix(fn, "type:.hash."):
		return "runtime.map"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/benchmark"):
		return "benchmark"
	case strings.HasPrefix(fn, "syscall."), strings.HasPrefix(fn, "internal/runtime/syscall."),
		strings.HasPrefix(fn, "internal/poll."), strings.HasPrefix(fn, "runtime.syscall"),
		strings.HasPrefix(fn, "runtime/internal/syscall."):
		return "syscall"
	case strings.HasPrefix(fn, "runtime."):
		name := fn[len("runtime."):]
		for _, k := range []string{"gc", "scan", "mark", "sweep", "grey", "wbBuf", "bgsweep", "bulkBarrier", "(*gcWork)", "(*gcBits)",
			"(*sweepLocked)", "findObject", "typePointers", "(*mspan).heapBits", "(*mspan).typePointers", "spanOf", "addb"} {
			if strings.HasPrefix(name, k) {
				return "runtime.gc"
			}
		}
		for _, k := range []string{"malloc", "newobject", "growslice", "makeslice", "(*mcache)", "(*mcentral)", "(*mheap)", "nextFreeFast",
			"memclr", "(*mspan).init", "(*mspan).base", "(*mspan).divideByElemSize", "deductAssistCredit", "publicationBarrier"} {
			if strings.HasPrefix(name, k) {
				return "runtime.malloc"
			}
		}
		for _, k := range []string{"schedule", "findRunnable", "park", "ready", "futex", "netpoll", "epoll", "wakep", "startm", "stopm", "notesleep", "notewakeup", "runq", "stealWork", "goready", "gopark", "mcall", "execute", "resetspinning", "checkTimers", "usleep", "osyield", "lock2", "unlock2", "pidleget", "injectglist"} {
			if strings.HasPrefix(name, k) {
				return "runtime.sched"
			}
		}
		return "runtime.other"
	}
	return "other"
}

// flatByFunction decodes a gzipped pprof profile just far enough to sum
// the last sample value (CPU nanoseconds) by each sample's leaf
// function: the in-tree minimum of `go tool pprof -top`.
func flatByFunction(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		leaf  uint64
		value int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id → leaf function id
		funcName = map[uint64]int64{}  // function id → string index
		strs     []string
	)
	err = protoFields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			first := true
			err := protoFields(b, func(n int, v uint64, pb []byte) error {
				vals, err := packed(v, pb)
				if err != nil {
					return err
				}
				switch n {
				case 1:
					if first && len(vals) > 0 {
						s.leaf, first = vals[0], false
					}
				case 2:
					if len(vals) > 0 {
						s.value = int64(vals[len(vals)-1])
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			haveLine := false
			err := protoFields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line; the first is the innermost inlined frame
					if haveLine {
						return nil
					}
					haveLine = true
					return protoFields(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := protoFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, s := range samples {
		name := "?"
		if i := funcName[locFunc[s.leaf]]; i > 0 && int(i) < len(strs) {
			name = strs[i]
		}
		out[name] += float64(s.value)
	}
	return out, nil
}

var errProto = errors.New("malformed profile")

// protoFields walks the top-level fields of one protobuf message,
// calling f with the varint value (wire type 0) or the bytes (type 2).
func protoFields(b []byte, f func(num int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), key&7
		switch wt {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			if err := f(num, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// packed returns a repeated varint field's values whether it arrived
// packed (bytes) or as a single unpacked element.
func packed(v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProto
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
