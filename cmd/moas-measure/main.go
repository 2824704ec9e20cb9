// Command moas-measure runs the paper's §3 measurement pipeline over
// the synthetic RouteViews dump series and prints the §3 summary
// statistics; -csv <dir> writes the daily MOAS case counts of Figure 4
// (fig4.csv) and the case-duration histogram of Figure 5 (fig5.csv).
// With -emit-dumps it instead writes daily MRT table dumps
// (dump-YYYY-MM-DD.mrt), which -mrt measures and cmd/moas-collector
// checks like any RouteViews archive.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"

	"repro/internal/measure"
	"repro/internal/routegen"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1997, "generator seed")
		days      = flag.Int("days", routegen.StudyDays, "study window length in days")
		emitDumps = flag.String("emit-dumps", "", "directory to write daily MRT dump files into")
		emitCount = flag.Int("emit-count", 5, "number of days to emit with -emit-dumps")
		emitFrom  = flag.Int("emit-from", 0, "first day to emit with -emit-dumps")
		csvDir    = flag.String("csv", "", "directory to write fig4.csv and fig5.csv into")
		mrtDir    = flag.String("mrt", "", "directory of MRT archives to measure instead of the synthetic series (one file per study day)")
	)
	flag.Parse()
	var err error
	if *mrtDir != "" {
		err = runMRT(*mrtDir, *csvDir)
	} else {
		err = run(*seed, *days, *emitDumps, *emitFrom, *emitCount, *csvDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "moas-measure:", err)
		os.Exit(1)
	}
}

// runMRT runs the origin-set study over a directory of real MRT
// archives (RouteViews/RIS table dumps or update traces), one file per
// study day, via the measure.ObserveMRT adapter.
func runMRT(dir, csvDir string) error {
	analysis := measure.NewAnalysis()
	files, err := analysis.ObserveMRTDir(dir)
	if err != nil {
		return err
	}
	fmt.Println("== MRT ingest ==")
	for _, f := range files {
		fmt.Printf("%-40s records=%d rib-prefixes=%d rib-entries=%d updates=%d skipped=%d malformed=%d as4-substituted=%d\n",
			f.Name, f.Result.Stats.Records, f.Result.Stats.RIBPrefixes, f.Result.Stats.RIBEntries,
			f.Result.Stats.Updates, f.Result.Stats.Skipped, f.Result.Malformed, f.Result.Stats.AS4Substituted)
	}
	fmt.Println("\n== Summary (paper §3) ==")
	fmt.Print(analysis.Summarize())
	if csvDir != "" {
		return writeCSVs(analysis, csvDir)
	}
	return nil
}

func run(seed int64, days int, emitDir string, emitFrom, emitCount int, csvDir string) error {
	cfg := routegen.DefaultConfig()
	cfg.Seed = seed
	cfg.Days = days
	gen, err := routegen.New(cfg)
	if err != nil {
		return err
	}

	if emitDir != "" {
		return emitDumps(gen, emitDir, emitFrom, emitCount)
	}

	// Dump generation runs on GOMAXPROCS workers; the summary does not
	// depend on their number.
	analysis, err := measure.RunParallel(gen, runtime.GOMAXPROCS(0))
	if err != nil {
		return err
	}
	fmt.Println("== Summary (paper §3) ==")
	fmt.Print(analysis.Summarize())

	if csvDir != "" {
		return writeCSVs(analysis, csvDir)
	}
	return nil
}

func writeCSVs(analysis *measure.Analysis, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, out := range []struct {
		name  string
		write func(w io.Writer) error
	}{
		{"fig4.csv", analysis.WriteFigure4CSV},
		{"fig5.csv", analysis.WriteFigure5CSV},
	} {
		name := filepath.Join(dir, out.name)
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := out.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", name)
	}
	return nil
}

func emitDumps(gen *routegen.Generator, dir string, from, count int) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for day := from; day < from+count && day < gen.Days(); day++ {
		d, err := gen.DumpForDay(day)
		if err != nil {
			return err
		}
		name := filepath.Join(dir, fmt.Sprintf("dump-%s.mrt", d.Date.Format("2006-01-02")))
		f, err := os.Create(name)
		if err != nil {
			return err
		}
		if err := routegen.WriteMRT(f, d); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", name)
	}
	return nil
}
