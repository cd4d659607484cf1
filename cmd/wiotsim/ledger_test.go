package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/wiot-security/sift/internal/campaign"
	"github.com/wiot-security/sift/internal/experiments"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

var update = flag.Bool("update", false, "rewrite testdata/ledger.txt from this build's outputs")

// ledgerPath is the golden ledger at the module root.
const ledgerPath = "../../testdata/ledger.txt"

// expProbe is an argument at which amd64's math.Exp returns a different
// float64 with and without the CPU's FMA unit (GODEBUG=cpu.fma=off).
// It is a variable so the call is not folded at compile time.
var expProbe = -17.0

// quickSVM is siftlab's SVM setting at its default -seed and -max-iter,
// the one its -quick tables train with.
var quickSVM = svm.Config{Seed: 42, MaxIter: 150}

// TestGoldenLedger pins the repo's deterministic outputs to absolute
// values: each catalog campaign's verdict digest and manifest bytes,
// the 1,000-wearer streamed smoke's digest line, the -quick Table
// II/III, Fig 2, Fig 3, classifier-comparison and sweep text, each version's
// Table III cycles per window and battery-days, and the trained SVM
// model bytes of each -quick wearer and detector version. The invariance tests elsewhere compare two
// paths of one build; this one catches a change that moves every path
// alike.
//
// The values hold only where the floating-point path matches the
// recording: the ledger records GOARCH and the bits of math.Exp at a
// probe argument that differs with and without FMA, and the test skips
// when either differs. Each group of entries is a subtest, so one can
// be checked alone (-run TestGoldenLedger/campaign/chaos-soak). After a
// deliberate change to an entry, rewrite the file with
//
//	go test ./cmd/wiotsim -run TestGoldenLedger -update
//
// A -run filter on the subtests rewrites only the entries it reaches.
func TestGoldenLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every catalog campaign, a 1,000-wearer stream, the -quick tables, figures and sweeps, and 12 trainings")
	}
	got := ledgerEnv()
	want, err := readLedger(ledgerPath)
	if err != nil && !*update {
		t.Fatal(err)
	}
	if !*update {
		for _, k := range sortedKeys(got) {
			if want[k] != got[k] {
				t.Skipf("ledger recorded %s %q, this machine gives %q: its float64 results may differ", k, want[k], got[k])
			}
		}
	}
	known := ledgerKeys(t)
	check := func(t *testing.T, key, value string) {
		t.Helper()
		if !known[key] {
			t.Fatalf("entry %s is missing from ledgerKeys", key)
		}
		got[key] = value
		if !*update && want[key] != value {
			t.Errorf("%s = %q, ledger has %q", key, value, want[key])
		}
	}

	t.Run("campaign", func(t *testing.T) {
		for _, c := range campaign.All() {
			t.Run(c.Name, func(t *testing.T) {
				verdict, manifest := ledgerCampaign(t, c.Name)
				check(t, "campaign."+c.Name+".verdict", verdict)
				check(t, "campaign."+c.Name+".manifest_sha256", manifest)
			})
		}
	})
	t.Run("stream", func(t *testing.T) {
		check(t, "stream.digest", ledgerStream(t))
	})
	quickEnv := sync.OnceValues(func() (*experiments.Env, error) {
		return experiments.NewEnv(experiments.QuickConfig())
	})
	t.Run("siftlab", func(t *testing.T) {
		t.Run("table2", func(t *testing.T) {
			t2, err := experiments.Table2(mustEnv(t, quickEnv), quickSVM)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "siftlab.table2_sha256", sha256Hex([]byte(t2.Format())))
		})
		t.Run("table3", func(t *testing.T) {
			t3, err := experiments.Table3(mustEnv(t, quickEnv), nil)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "siftlab.table3_sha256", sha256Hex([]byte(t3.Format())))
			for _, row := range t3.Rows {
				check(t, billKey(row.Version, "cycles_per_window"), strconv.FormatFloat(row.CyclesPerWindow, 'f', -1, 64))
				check(t, billKey(row.Version, "battery_days"), strconv.FormatFloat(row.Report.LifetimeDays, 'f', -1, 64))
			}
		})
		t.Run("fig2", func(t *testing.T) {
			trace, err := experiments.Fig2(mustEnv(t, quickEnv), quickSVM)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "siftlab.fig2_sha256", sha256Hex([]byte(trace)))
		})
		t.Run("fig3", func(t *testing.T) {
			view, err := experiments.Fig3(mustEnv(t, quickEnv))
			if err != nil {
				t.Fatal(err)
			}
			check(t, "siftlab.fig3_sha256", sha256Hex([]byte(view)))
		})
		t.Run("classifiers", func(t *testing.T) {
			rows, err := experiments.ClassifierComparison(mustEnv(t, quickEnv), quickSVM)
			if err != nil {
				t.Fatal(err)
			}
			check(t, "siftlab.classifiers_sha256", sha256Hex([]byte(experiments.FormatClassifiers(rows))))
		})
		for _, sw := range ledgerSweeps {
			t.Run(sw.name, func(t *testing.T) {
				text, err := sw.run(mustEnv(t, quickEnv))
				if err != nil {
					t.Fatal(err)
				}
				check(t, sweepKey(sw.name), sha256Hex([]byte(text)))
			})
		}
	})
	t.Run("svm", func(t *testing.T) {
		for _, v := range features.Versions {
			t.Run(versionKey(v), func(t *testing.T) {
				env := mustEnv(t, quickEnv)
				for i, s := range env.Subjects {
					check(t, modelKey(v, s.ID), ledgerModel(t, env, i, v))
				}
			})
		}
	})

	if *update {
		if t.Failed() {
			t.Fatal("ledger not rewritten: an entry could not be produced")
		}
		// Entries a -run filter kept this run from reaching stay as
		// recorded; names no subtest produces any more are dropped.
		entries := make(map[string]string, len(known))
		for k, v := range want {
			if known[k] {
				entries[k] = v
			}
		}
		for k, v := range got {
			entries[k] = v
		}
		if err := os.WriteFile(ledgerPath, formatLedger(entries), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// ledgerEnv returns the entries that decide whether the recorded
// values can hold on this machine.
func ledgerEnv() map[string]string {
	return map[string]string{
		"env.goarch":    runtime.GOARCH,
		"env.exp_probe": fmt.Sprintf("exp(%v)=%016x", expProbe, math.Float64bits(math.Exp(expProbe))),
	}
}

// ledgerKeys returns every name the ledger holds: the environment
// entries and each entry TestGoldenLedger produces.
func ledgerKeys(t *testing.T) map[string]bool {
	t.Helper()
	keys := make(map[string]bool)
	for k := range ledgerEnv() {
		keys[k] = true
	}
	for _, c := range campaign.All() {
		keys["campaign."+c.Name+".verdict"] = true
		keys["campaign."+c.Name+".manifest_sha256"] = true
	}
	keys["stream.digest"] = true
	keys["siftlab.table2_sha256"] = true
	keys["siftlab.table3_sha256"] = true
	keys["siftlab.fig2_sha256"] = true
	keys["siftlab.fig3_sha256"] = true
	keys["siftlab.classifiers_sha256"] = true
	for _, sw := range ledgerSweeps {
		keys[sweepKey(sw.name)] = true
	}
	for _, v := range features.Versions {
		keys[billKey(v, "cycles_per_window")] = true
		keys[billKey(v, "battery_days")] = true
	}
	cfg := experiments.QuickConfig()
	subjects, err := physio.Cohort(cfg.Subjects, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range features.Versions {
		for _, s := range subjects {
			keys[modelKey(v, s.ID)] = true
		}
	}
	return keys
}

func versionKey(v features.Version) string { return strings.ToLower(v.String()) }

// billKey names one figure of version v's -quick Table III device bill.
func billKey(v features.Version, figure string) string {
	return "siftlab.table3." + versionKey(v) + "." + figure
}

// ledgerSweeps are siftlab's -quick sweep experiments, each run with
// siftlab's parameters and rendered as siftlab prints it.
var ledgerSweeps = []struct {
	name string
	run  func(env *experiments.Env) (string, error)
}{
	{"sweep-window", func(env *experiments.Env) (string, error) {
		pts, err := experiments.SweepWindow(env, features.Simplified, []float64{1, 2, 3, 5, 8}, quickSVM)
		return experiments.FormatSweep("Accuracy vs window length (Simplified)", "w (s)", pts), err
	}},
	{"sweep-grid", func(env *experiments.Env) (string, error) {
		pts, err := experiments.SweepGrid(env, features.Simplified, []int{10, 25, 50, 75, 100}, quickSVM)
		return experiments.FormatSweep("Accuracy vs portrait grid size (Simplified)", "n", pts), err
	}},
	{"sweep-train", func(env *experiments.Env) (string, error) {
		// siftlab's spans that fit the -quick 120 s training record.
		pts, err := experiments.SweepTraining(env, features.Simplified, []float64{60, 120}, quickSVM)
		return experiments.FormatSweep("Accuracy vs training span (Simplified)", "Δ (s)", pts), err
	}},
	{"precision", func(env *experiments.Env) (string, error) {
		pts, err := experiments.PrecisionSweep(env, features.Simplified, []int{4, 8, 12, 16, 20}, quickSVM)
		return experiments.FormatSweep("Accuracy vs fixed-point fractional bits (Simplified)", "bits", pts), err
	}},
}

func sweepKey(name string) string { return "siftlab." + strings.ReplaceAll(name, "-", "_") + "_sha256" }

func modelKey(v features.Version, subjectID string) string {
	return "svm." + versionKey(v) + "." + subjectID + ".model_sha256"
}

func mustEnv(t *testing.T, env func() (*experiments.Env, error)) *experiments.Env {
	t.Helper()
	e, err := env()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sha256Hex(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// ledgerCampaign runs one catalog campaign as `wiotsim build run <name>
// -manifest` does and returns its verdict digest and the sha256 of the
// manifest bytes.
func ledgerCampaign(t *testing.T, name string) (verdict, manifest string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name+".json")
	var out, errOut bytes.Buffer
	if code := buildMain([]string{"run", name, "-manifest", path}, &out, &errOut); code != 0 {
		t.Fatalf("campaign %s: exit %d\n%s%s", name, code, out.String(), errOut.String())
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m, err := campaign.ParseManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	return m.VerdictDigest, sha256Hex(b)
}

// ledgerStream runs `wiotsim -fleet 1000 -shards 4 -workers 2 -stream
// -train 60 -live 6 -attack-at 3` and returns its digest: line.
func ledgerStream(t *testing.T) string {
	t.Helper()
	var out bytes.Buffer
	err := runStreamFleet(fleetOptions{
		subjects: 1000, shards: 4, workers: 2, seed: 42,
		trainSec: 60, liveSec: 6, attackAt: 3, loss: 0.02, dup: 0.01,
		version: features.Original,
	}, &out)
	if err != nil {
		t.Fatalf("stream: %v\n%s", err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "digest: ") {
			return line
		}
	}
	t.Fatalf("stream output has no digest line:\n%s", out.String())
	return ""
}

// ledgerModel trains wearer i's detector of version v as the -quick
// Table II does and returns the sha256 of its svm.Model.Marshal bytes.
func ledgerModel(t *testing.T, env *experiments.Env, i int, v features.Version) string {
	t.Helper()
	det, err := sift.TrainForSubject(env.TrainRecs[i], env.DonorsFor(i), sift.Config{Version: v, SVM: quickSVM})
	if err != nil {
		t.Fatal(err)
	}
	b, err := det.Model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(b)
}

// readLedger parses "name value" lines; # starts a comment.
func readLedger(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	entries := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		entries[k] = v
	}
	return entries, sc.Err()
}

// formatLedger renders entries as -update writes them: a header, then
// one "name value" line per entry in name order.
func formatLedger(entries map[string]string) []byte {
	var b strings.Builder
	b.WriteString("# Golden ledger: name value. Checked by TestGoldenLedger (cmd/wiotsim);\n")
	b.WriteString("# rewrite with: go test ./cmd/wiotsim -run TestGoldenLedger -update\n")
	for _, k := range sortedKeys(entries) {
		fmt.Fprintf(&b, "%s %s\n", k, entries[k])
	}
	return []byte(b.String())
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestLedgerFileCanonical: the committed ledger is byte for byte what
// -update would write for its entries, so a hand edit that breaks the
// header or the name order fails here, in -short runs too.
func TestLedgerFileCanonical(t *testing.T) {
	b, err := os.ReadFile(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := readLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := formatLedger(entries); !bytes.Equal(b, want) {
		t.Errorf("%s is not in -update's form; it should read:\n%s", ledgerPath, want)
	}
}

// TestLedgerFileNamesEveryEntry: the ledger holds exactly the names
// TestGoldenLedger produces, so no entry goes unchecked and no stale
// one lingers.
func TestLedgerFileNamesEveryEntry(t *testing.T) {
	entries, err := readLedger(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	known := ledgerKeys(t)
	for k := range known {
		if _, ok := entries[k]; !ok {
			t.Errorf("ledger has no entry %s", k)
		}
	}
	for _, k := range sortedKeys(entries) {
		if !known[k] {
			t.Errorf("ledger entry %s is no longer produced", k)
		}
	}
}

func TestReadLedger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.txt")
	if err := os.WriteFile(path, []byte("# comment\n\nstream.digest digest: a=1 b=2\nenv.goarch amd64\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got["stream.digest"] != "digest: a=1 b=2" || got["env.goarch"] != "amd64" {
		t.Errorf("readLedger = %q, want the two entries with values after the first space", got)
	}
	if err := os.WriteFile(path, []byte("env.goarch amd64\nnovalue\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readLedger(path); err == nil {
		t.Error("a line without a value should be rejected")
	}
}
