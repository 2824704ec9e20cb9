package rpki

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/astypes"
)

// Parse reads the text ROA format, one record set per line:
//
//	prefix=origin[@maxlen][,origin[@maxlen]...]
//	# comments and blank lines are ignored
//	131.179.0.0/16=65001@24,65002
//
// The shape mirrors the MOASRR database that dnsval.Parse reads
// (prefix=asn,asn); an origin is a 32-bit AS number, and the optional
// @maxlen extends an authorization to more-specifics. A missing maxlen
// authorizes exactly the stated prefix.
func Parse(r io.Reader) ([]ROA, error) {
	var out []ROA
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return nil, fmt.Errorf("rpki: line %d: want prefix=origin[@maxlen],...", lineNo)
		}
		prefix, err := astypes.ParsePrefix(strings.TrimSpace(line[:eq]))
		if err != nil {
			return nil, fmt.Errorf("rpki: line %d: %w", lineNo, err)
		}
		fields := strings.Split(line[eq+1:], ",")
		if len(fields) == 1 && strings.TrimSpace(fields[0]) == "" {
			return nil, fmt.Errorf("rpki: line %d: no origins for %s", lineNo, prefix)
		}
		for _, f := range fields {
			f = strings.TrimSpace(f)
			spec := f
			maxLen := prefix.Len
			if at := strings.IndexByte(f, '@'); at >= 0 {
				ml, err := strconv.ParseUint(strings.TrimSpace(f[at+1:]), 10, 8)
				if err != nil || uint8(ml) < prefix.Len || ml > 32 {
					return nil, fmt.Errorf("rpki: line %d: maxlen %q out of [%d, 32]", lineNo, f[at+1:], prefix.Len)
				}
				maxLen = uint8(ml)
				spec = f[:at]
			}
			origin, err := astypes.ParseASN(strings.TrimSpace(spec))
			if err != nil {
				return nil, fmt.Errorf("rpki: line %d: %w", lineNo, err)
			}
			out = append(out, ROA{Prefix: prefix, MaxLen: maxLen, Origin: origin})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("rpki: read: %w", err)
	}
	return out, nil
}

// ParseFile reads an ROA file (see Parse for the format).
func ParseFile(path string) ([]ROA, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("rpki: %w", err)
	}
	defer f.Close()
	roas, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("rpki: %s: %w", path, err)
	}
	return roas, nil
}

// Open builds the validated ROA store from any mix of sources: an ROA
// file, inline records, and an RTR cache at rtr.Addr. File and inline
// records load now. With an address, Open also returns the RTR client
// that keeps the store synchronized (rtr.Store is set to the new
// store); the caller drives its Run, and its Synced is the readiness
// probe. A full RTR sync replaces the whole store, file and inline
// records included. With no source at all, the store and client are
// both nil: the process runs without ROV cross-validation.
func Open(file string, roas []ROA, rtr ClientConfig) (*Store, *Client, error) {
	if file == "" && len(roas) == 0 && rtr.Addr == "" {
		return nil, nil, nil
	}
	if file != "" {
		fromFile, err := ParseFile(file)
		if err != nil {
			return nil, nil, err
		}
		roas = append(fromFile, roas...)
	}
	store := NewStore()
	for _, r := range roas {
		store.Add(r)
	}
	if rtr.Addr == "" {
		return store, nil, nil
	}
	rtr.Store = store
	client, err := NewClient(rtr)
	return store, client, err
}
