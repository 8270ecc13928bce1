package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// result is the document a run writes with -out and -compare reads.
type result struct {
	Env       environment       `json:"env"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
	Rounds    int               `json:"rounds"`
	Metrics   map[string]metric `json:"metrics"`
	// Hashes are the output digests the golden check compares.
	Hashes map[string]string `json:"hashes"`
}

// childTimeout bounds one round, so a wedged round cannot hold the run
// past its deadline.
const childTimeout = 150 * time.Second

// runBenchmark runs rounds of the workload, each in a fresh process,
// until the next round would end after seconds, then checks and
// reports them.
func runBenchmark(workload string, seed uint64, seconds int, traced bool, spansPath, outPath string) (*result, error) {
	pl, err := planFor(workload, seed)
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	var rounds []*roundDoc
	if spansPath != "" {
		// Each round's process appends its spans.
		if err := os.WriteFile(spansPath, nil, 0o644); err != nil {
			return nil, err
		}
	}
	for r := 0; ; r++ {
		begin := time.Now()
		doc, err := runChild(ctx, exe, workload, seed, r, traced, traced && r == 0, spansPath)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", r, err)
		}
		rounds = append(rounds, doc)
		// The next round is expected to take as long as this one without
		// its probe, which only round 0 runs.
		next := time.Since(begin) - time.Duration(doc.ProbeS*float64(time.Second))
		if time.Since(start)+next > budget {
			break
		}
	}

	var golden map[string]string
	if !pl.seededOutputs || seed == 0 {
		if err := json.Unmarshal(goldenJSON, &golden); err != nil {
			return nil, fmt.Errorf("golden hashes: %w", err)
		}
	}
	res := summarize(pl, rounds, traced, golden)
	res.Env = currentEnv(workload, seed, traced, seconds)
	if outPath != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// runChild runs one round in a fresh process: per-process memoization
// (loaded datasets, assembled workloads, the digest table) never
// carries from one round into the next. The round's set-up time counts
// from the launch.
func runChild(ctx context.Context, exe, workload string, seed uint64, round int, traced, probe bool, spansPath string) (*roundDoc, error) {
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", workload,
		"-seed", strconv.FormatUint(seed, 10), "-round", strconv.Itoa(round),
		"-trace", boolDigit(traced), "-probe="+strconv.FormatBool(probe), "-spans", spansPath,
		"-started", strconv.FormatInt(time.Now().UnixNano(), 10))
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, err
	}
	var doc roundDoc
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("decoding round document: %w", err)
	}
	return &doc, nil
}

func boolDigit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// summarize checks the rounds against each other and, when golden is
// non-nil, against the golden hashes, and derives the metrics. Every
// failing op of every round and every golden mismatch counts as one
// failure.
func summarize(pl *plan, rounds []*roundDoc, traced bool, golden map[string]string) *result {
	res := &result{Rounds: len(rounds)}
	failedOps := 0
	for _, r := range rounds {
		res.Attempted += len(r.LatencyMS)
		failed := map[int]bool{}
		for _, i := range r.Failed {
			failed[i] = true
		}
		// Every round must reproduce round 0's bytes.
		for i, item := range r.Items {
			if item != "" && rounds[0].Items[i] != "" && item != rounds[0].Items[i] && !failed[i] {
				failed[i] = true
				r.fail(i, pl.ops[i].label, "output differs from round 0")
			}
		}
		failedOps += len(failed)
		res.Failures = append(res.Failures, r.Failures...)
	}
	res.Hashes = outputHashes(pl, rounds[0])
	goldenFails := 0
	if golden != nil {
		keys := make([]string, 0, len(res.Hashes))
		for k := range res.Hashes {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if want, ok := golden[k]; !ok {
				goldenFails++
				res.Failures = append(res.Failures, "no golden hash for "+k)
			} else if want != res.Hashes[k] {
				goldenFails++
				res.Failures = append(res.Failures, fmt.Sprintf("%s: output hash %s, golden %s", k, res.Hashes[k], want))
			}
		}
	}
	res.Failed = failedOps + goldenFails
	res.Correct = res.Failed == 0
	res.Metrics = deriveMetrics(pl, rounds, res.Failed, res.Attempted, traced)
	return res
}

// outputHashes digests a round's checked outputs: per experiment for
// figures, else one SHA-256 over the per-op digests in op order.
func outputHashes(pl *plan, r *roundDoc) map[string]string {
	out := map[string]string{}
	if pl.workload == "figures" {
		for i, o := range pl.ops {
			if o.check {
				out["figures/"+o.label] = r.Items[i]
			}
		}
		return out
	}
	sum := sha256.Sum256([]byte(strings.Join(r.Items, "\n")))
	out[pl.workload] = hex.EncodeToString(sum[:])
	return out
}

// report prints every metric by name and unit, then the one-line
// summary: every end-to-end metric untraced, every per-layer metric
// traced.
func report(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# %s seed=%d traced=%t rounds=%d commit=%s cpu=%q nproc=%d %s\n",
		res.Env.Workload, res.Env.Seed, res.Env.Traced, res.Rounds,
		res.Env.Commit, res.Env.CPU, res.Env.NProc, res.Env.GoVersion)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "# FAIL %s\n", f)
	}
	for _, k := range names {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, declared(res.Metrics, res.Env.Traced)})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
