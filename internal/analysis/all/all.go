// Package all registers every repo-specific analyzer, for the
// cmd/repro-vet multichecker and any future drivers.
package all

import (
	"repro/internal/analysis"
	"repro/internal/analysis/goroutinectx"
	"repro/internal/analysis/lockcheck"
	"repro/internal/analysis/wireerr"
)

// Analyzers returns the full suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		goroutinectx.Analyzer,
		lockcheck.Analyzer,
		wireerr.Analyzer,
	}
}
