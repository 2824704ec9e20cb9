package dnsval

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/astypes"
	"repro/internal/core"
)

// Parse reads a MOASRR database in its text form, one record a line:
//
//	prefix=asn[,asn...]
//	# comments and blank lines are ignored
//	131.179.0.0/16 = 4, 226
//
// A later line for the same prefix replaces the earlier record.
func Parse(r io.Reader) (*Store, error) {
	store := NewStore()
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		prefixStr, asnsStr, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("dnsval: line %d: want prefix=asn,asn", lineNo)
		}
		prefix, err := astypes.ParsePrefix(strings.TrimSpace(prefixStr))
		if err != nil {
			return nil, fmt.Errorf("dnsval: line %d: %w", lineNo, err)
		}
		var origins []astypes.ASN
		for _, s := range strings.Split(asnsStr, ",") {
			asn, err := astypes.ParseASN(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("dnsval: line %d: %w", lineNo, err)
			}
			origins = append(origins, asn)
		}
		store.Register(prefix, core.NewList(origins...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dnsval: read: %w", err)
	}
	return store, nil
}
