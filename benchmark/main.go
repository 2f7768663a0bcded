// Command benchmark is the repo's benchmark: four workloads, one panel of
// end-to-end metrics every workload reports, and per-layer numbers from a
// second, traced run that times each layer from outside. See README.md in
// this directory and BENCHMARK.json at the repo root.
//
//	go run ./benchmark                       every workload, untraced then traced
//	go run ./benchmark -workload serve_wire  one workload
//	go run ./benchmark -sets 5               run-to-run spread table
//	go run ./benchmark -smoke                tiny sizes, a few seconds
//
// The driver's form, one workload and one kind of run per process:
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"

	"code56/internal/xorblk"
)

func main() {
	var (
		wname   = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", runSeconds, "seconds one run measures")
		trace   = flag.String("trace", "both", "0 = untraced run (end-to-end metrics), 1 = traced run (per-layer metrics), both")
		spans   = flag.String("spans", "", "traced run: write the spans here as JSON lines")
		dir     = flag.String("dir", "", "create the scratch directory under this one (default: the working directory)")
		sets    = flag.Int("sets", 1, "run the whole benchmark this many times and print each metric's spread")
		smoke   = flag.Bool("smoke", false, "tiny sizes and one-second runs: checks the benchmark, measures nothing")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	if *spec {
		os.Stdout.Write(benchmarkJSON())
		return
	}
	if *smoke && !isSet("seconds") {
		*seconds = 1
	}
	if err := realMain(*wname, *trace, *spans, *dir, *seed, *seconds, *sets, *smoke); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func isSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

func realMain(wname, trace, spans, dir string, seed int64, seconds float64, sets int, smoke bool) error {
	var names []string
	if wname == "all" {
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if _, ok := workloadByName(wname); ok {
		names = []string{wname}
	} else {
		return fmt.Errorf("unknown workload %q", wname)
	}
	var modes []bool // traced?
	switch trace {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", trace)
	}

	// One workload, one kind of run: this process is the measurement.
	if len(names) == 1 && len(modes) == 1 && sets == 1 {
		return runHere(os.Stdout, names[0], modes[0], spans, dir, seed, seconds, smoke)
	}

	// Otherwise every run gets a process of its own (heap state and
	// peak_rss_mb must not leak from one to the next) and this one only
	// collects. The traced run is a third as long: it is there for the
	// shares and counts, not for the medians.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if sets > 1 {
		printHeader(os.Stdout, seed, dir) // the runs' own output is not shown
	}
	table := map[string][]float64{} // "workload/metric" → one value per set
	for set := 0; set < sets; set++ {
		for i := range names {
			name := names[(i+set)%len(names)] // another order each set
			for _, traced := range modes {
				secs := seconds
				if traced && len(modes) == 2 {
					secs = seconds / 3
				}
				args := []string{
					"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(secs),
					"-trace", map[bool]string{false: "0", true: "1"}[traced], "-dir", dir,
				}
				if smoke {
					args = append(args, "-smoke")
				}
				if traced && spans != "" {
					args = append(args, "-spans", spans+"."+name)
				}
				out, err := runChild(self, args)
				if err != nil {
					return fmt.Errorf("%s (traced=%v): %w", name, traced, err)
				}
				if sets == 1 {
					os.Stdout.Write(out.human)
				}
				if !out.line.Correct || out.line.Failed > 0 {
					os.Stdout.Write(out.human)
					return fmt.Errorf("%s (traced=%v): incorrect result, %d of %d operations failed", name, traced, out.line.Failed, out.line.Attempted)
				}
				for m, v := range out.line.Metrics {
					table[name+"/"+m] = append(table[name+"/"+m], v.Value)
				}
			}
		}
	}
	if sets > 1 {
		return printSets(os.Stdout, table, sets)
	}
	printCross(os.Stdout, table)
	return nil
}

// jsonLine is the last line of a run's standard output.
type jsonLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type childOutput struct {
	human []byte
	line  jsonLine
}

// runChild re-executes this binary for one run and waits for it to end.
func runChild(self string, args []string) (childOutput, error) {
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return childOutput{}, err
	}
	text := bytes.TrimRight(stdout.Bytes(), "\n")
	cut := bytes.LastIndexByte(text, '\n') + 1
	out := childOutput{human: text[:cut]}
	if err := json.Unmarshal(text[cut:], &out.line); err != nil {
		return out, fmt.Errorf("last line of output is not the result: %w", err)
	}
	return out, nil
}

// runHere runs one workload in this process and prints its metrics, then
// the result as one JSON object on the last line.
func runHere(out io.Writer, name string, traced bool, spans, dir string, seed int64, seconds float64, smoke bool) error {
	w, _ := workloadByName(name)
	if smoke {
		w = w.smoke()
	}
	if dir == "" {
		dir = "."
	}
	scratch, err := os.MkdirTemp(dir, ".bench_scratch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)
	if scratch, err = filepath.Abs(scratch); err != nil {
		return err
	}

	res, err := run(runOpts{w: w, seed: seed, seconds: seconds, traced: traced, smoke: smoke, scratch: scratch, spans: spans})
	if err != nil {
		return err
	}
	printHeader(out, seed, dir)
	fmt.Fprintf(out, "== %s  traced=%v  seed=%d  seconds=%g  p=%d block=%d stripes=%d (%.0f MB user data)  backend=%s  foreground clients=%s\n",
		w.Name, traced, seed, seconds, w.p(), w.block, w.stripes, float64(w.userBytes())/1e6,
		map[bool]string{false: "mem", true: fmt.Sprintf("file:%s (%s, WAL checkpoint every %d stripes, disk-image flushes dropped)", scratch, fsType(scratch), w.checkpoint)}[w.file],
		map[bool]string{false: "in-process", true: "HTTP loopback"}[w.wire])
	set := endToEnd
	if traced {
		set = perLayer
	}
	line := jsonLine{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]jsonValue{}}
	for _, m := range set {
		v, ok := res.Values[m.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", w.Name, m.Name)
		}
		fmt.Fprintf(out, "  %-36s %14.4f %-7s n=%d\n", m.Name, v, m.Unit, res.Samples[m.Name])
		line.Metrics[m.Name] = jsonValue{v, m.Unit}
	}
	if traced {
		// The traced run's own end-to-end readings, for the reader only:
		// end-to-end metrics are taken from the untraced run.
		for _, m := range endToEnd {
			fmt.Fprintf(out, "  (traced) %-27s %14.4f %-7s n=%d\n", m.Name, res.Values[m.Name], m.Unit, res.Samples[m.Name])
		}
	} else {
		for _, m := range demoted {
			fmt.Fprintf(out, "  (ungated) %-26s %14.4f %-7s n=%d\n", m.Name, res.Values[m.Name], m.Unit, res.Samples[m.Name])
		}
	}
	for _, n := range res.Notes {
		fmt.Fprintf(out, "  # %s\n", n)
	}
	fmt.Fprintf(out, "  operations attempted=%d failed=%d correct=%v\n", res.Attempted, res.Failed, res.Correct)
	blob, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", blob)
	return nil
}

// printHeader records the host the numbers belong to.
func printHeader(out io.Writer, seed int64, dir string) {
	if dir == "" {
		dir = "."
	}
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	if sha == "unknown" {
		if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			sha = strings.TrimSpace(string(b))
		}
	}
	fmt.Fprintf(out, "# host: nproc=%d GOMAXPROCS=%d kernel=%s go=%s %s/%s git=%s seed=%d scratch-fs=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), xorblk.KernelName, runtime.Version(), runtime.GOOS, runtime.GOARCH, sha, seed, fsType(dir))
	fmt.Fprintf(out, "# flush policy: file workloads checkpoint the migration every %d converted stripes and at commit; the WAL is fsynced there, the disk images' fsyncs are counted and dropped by the benchmark's stores; foreground writes are not fsynced\n", fileCheckpoint)
	fmt.Fprintf(out, "# latencies are this sandbox's page cache, not a device's\n")
}

// fsType names the filesystem a path lives on, by its statfs magic.
func fsType(path string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(path, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("magic-0x%X", uint32(st.Type))
}

// printCross prints what only a run of every workload can: the
// file-over-memory conversion tax (ROADMAP's unattributed drop).
func printCross(out io.Writer, table map[string][]float64) {
	mem, file := table["convert_mem/convert_mbps"], table["convert_file_fg/convert_mbps"]
	if len(mem) > 0 && len(file) > 0 && file[0] > 0 {
		fmt.Fprintf(out, "# tax.convert_file_over_mem = %.2f (convert_mem convert_mbps %.1f / convert_file_fg convert_mbps %.1f)\n",
			mem[0]/file[0], mem[0], file[0])
	}
}

// printSets prints each metric's min, median, max and spread over the sets
// and fails if an end-to-end metric moved by more than its own bound between
// any two sets of the same code.
func printSets(out io.Writer, table map[string][]float64, sets int) error {
	keys := make([]string, 0, len(table))
	for k := range table {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(out, "# %d sets; spread = (max-min)/median; end-to-end metrics carry their bound\n", sets)
	fmt.Fprintf(out, "%-52s %12s %12s %12s %8s %6s\n", "workload/metric", "min", "median", "max", "spread", "bound")
	var over []string
	for _, k := range keys {
		vals := append([]float64(nil), table[k]...)
		sort.Float64s(vals)
		lo, mid, hi := vals[0], median(vals), vals[len(vals)-1]
		spread := ratio(hi-lo, mid)
		bound := boundOf(k[strings.IndexByte(k, '/')+1:])
		mark := ""
		if bound > 0 {
			mark = fmt.Sprintf("%.2f", bound)
			if spread > bound {
				over = append(over, k)
				mark += " !"
			}
		}
		fmt.Fprintf(out, "%-52s %12.4f %12.4f %12.4f %7.1f%% %6s\n", k, lo, mid, hi, spread*100, mark)
	}
	if len(over) > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between sets by more than their bound: %s", len(over), strings.Join(over, ", "))
	}
	return nil
}
