package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// stamp identifies the machine and program a result came from. Results
// are comparable only when the machine fields agree.
type stamp struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is git's HEAD when the checkout is a repository, otherwise
	// "src-" and a digest of the Go sources and go.mod the daemons were
	// built from.
	Commit string `json:"commit"`
}

// machine is the part of the stamp two compared results must share.
func (s stamp) machine() string {
	return fmt.Sprintf("%s | nproc %d | GOMAXPROCS %d | %s", s.CPUModel, s.NProc, s.GOMAXPROCS, s.GoVersion)
}

func machineStamp() (stamp, error) {
	s := stamp{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	f, err := os.Open("/proc/cpuinfo")
	if err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if s.CPUModel == "" {
		s.CPUModel = runtime.GOARCH
	}
	// Ask git only about this checkout: without a .git here, git would
	// report whatever repository happens to enclose it.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			s.Commit = strings.TrimSpace(string(out))
			return s, nil
		}
	}
	d, err := sourceDigest(".")
	if err != nil {
		return s, err
	}
	s.Commit = "src-" + d
	return s, nil
}

// sourceDigest hashes go.mod and every .go file under cmd/ and internal/
// in path order.
func sourceDigest(root string) (string, error) {
	var paths []string
	for _, dir := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(p, ".go") {
				paths = append(paths, p)
			}
			return nil
		})
		if err != nil {
			return "", err
		}
	}
	sort.Strings(paths)
	paths = append([]string{filepath.Join(root, "go.mod")}, paths...)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// compare reads the result records of two directories (each holding
// several seeds' runs of the same commit) and judges the change against
// the base; see compareRecords.
func compare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare <base-results-dir> <change-results-dir>")
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	base, err := loadRecords(args[0])
	if err != nil {
		return err
	}
	change, err := loadRecords(args[1])
	if err != nil {
		return err
	}
	return compareRecords(os.Stdout, sp, base, change)
}

// compareRecords reports, for every workload and metric, both medians,
// the base side's quartiles and whether the change stayed within the
// metric's bound. It refuses records from different machines and
// incorrect runs, and it fails when an end-to-end metric of a workload
// has values on one side only: a change that was not measured is not
// judged as passing.
func compareRecords(out io.Writer, sp *spec, base, change []runRecord) error {
	var machine string
	var incorrect []string
	for _, side := range []struct {
		name string
		recs []runRecord
	}{{"base", base}, {"change", change}} {
		for _, r := range side.recs {
			m := r.Stamp.machine()
			if machine == "" {
				machine = m
			} else if m != machine {
				return fmt.Errorf("refusing to compare results from different machines:\n  %s\n  %s", machine, m)
			}
			if !r.Result.Correct {
				incorrect = append(incorrect, fmt.Sprintf("%s %s seed %d trace %v", side.name, r.Workload, r.Seed, r.Trace))
			}
		}
	}
	if len(incorrect) > 0 {
		return fmt.Errorf("refusing to compare incorrect runs: %s", strings.Join(incorrect, "; "))
	}
	fmt.Fprintf(out, "machine: %s\nbase: %s\nchange: %s\n", machine, commits(base), commits(change))
	var problems []string
	for _, w := range workloads {
		for _, d := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
			bv, cv := values(base, w.name, d.Name), values(change, w.name, d.Name)
			if len(bv) == 0 || len(cv) == 0 {
				if d.Bound > 0 && len(bv)+len(cv) > 0 {
					problems = append(problems, fmt.Sprintf("%s %s has values on one side only", w.name, d.Name))
				}
				continue
			}
			bm, cm := median(bv), median(cv)
			q1, q3 := quartiles(bv)
			verdict := ""
			if d.Bound > 0 {
				change := ratio(cm-bm, bm)
				if d.Better == "higher" {
					change = -change
				}
				verdict = "ok"
				if change > d.Bound {
					verdict = "WORSE"
					problems = append(problems, fmt.Sprintf("%s %s worse than its bound", w.name, d.Name))
				}
			}
			fmt.Fprintf(out, "%-16s %-30s base %12.4f [%.4f, %.4f] change %12.4f %s %s\n",
				w.name, d.Name, bm, q1, q3, cm, d.Unit, verdict)
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s): %s", len(problems), strings.Join(problems, "; "))
	}
	return nil
}

func loadRecords(dir string) ([]runRecord, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no result records in %s", dir)
	}
	var out []runRecord
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func commits(recs []runRecord) string {
	seen := map[string]bool{}
	var out []string
	for _, r := range recs {
		if !seen[r.Stamp.Commit] {
			seen[r.Stamp.Commit] = true
			out = append(out, r.Stamp.Commit)
		}
	}
	sort.Strings(out)
	return strings.Join(out, ", ")
}

func values(recs []runRecord, workload, metricName string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metricName]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}
