package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
)

// selfCheck is -repeat N: what the pipeline's acceptance check does, run
// locally. Two sets of N runs per workload, each run a fresh process with
// its own seed, the workload order reversed on every other round so no
// workload always runs in another's wake. For each end-to-end metric it
// prints both sets' medians and quartiles, each set's spread (IQR ÷
// median) and the second median's worsening over the first, beside the
// bound; any spread (setup_s excepted) or worsening over the bound fails.
func selfCheck(out io.Writer, todo []workload, o options, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// samples[workload][set][metric] = one value per run
	samples := map[string][2]map[string][]float64{}
	for _, w := range todo {
		samples[w.name] = [2]map[string][]float64{{}, {}}
	}
	for set := 0; set < 2; set++ {
		for i := 0; i < n; i++ {
			order := append([]workload(nil), todo...)
			if i%2 == 1 {
				for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
					order[a], order[b] = order[b], order[a]
				}
			}
			for _, w := range order {
				seed := o.seed + int64(set*n+i)
				res, err := runChild(exe, w.name, seed, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: set %d run %d %s: %v\n", set+1, i+1, w.name, err)
					return 1
				}
				fmt.Fprintf(out, "set %d run %2d %-13s seed %d:", set+1, i+1, w.name, seed)
				for _, d := range endToEnd {
					v := res.Metrics[d.name].Value
					samples[w.name][set][d.name] = append(samples[w.name][set][d.name], v)
					fmt.Fprintf(out, " %s=%.6g", d.name, v)
				}
				fmt.Fprintln(out)
			}
		}
	}
	bad := 0
	fmt.Fprintf(out, "\n%-13s %-19s %12s %12s %12s %8s | %12s %8s | %8s %6s\n",
		"workload", "metric", "median_1", "q1_1", "q3_1", "spread_1", "median_2", "spread_2", "worse", "bound")
	for _, w := range todo {
		for _, d := range endToEnd {
			a, b := samples[w.name][0][d.name], samples[w.name][1][d.name]
			ma, mb := median(a), median(b)
			q1, q3 := quartiles(a)
			worse := (mb - ma) / ma
			if d.higher {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := ""
			if worse > d.bound || (d.name != "setup_s" && (sa > d.bound || sb > d.bound)) {
				verdict = "  MISSES BOUND"
				bad++
			}
			fmt.Fprintf(out, "%-13s %-19s %12.5g %12.5g %12.5g %8.4f | %12.5g %8.4f | %+8.4f %6.2f%s\n",
				w.name, d.name, ma, q1, q3, sa, mb, sb, worse, d.bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(out, "%d metric/workload pairs miss their bound\n", bad)
		return 1
	}
	fmt.Fprintln(out, "every end-to-end metric repeats within its bound on every workload")
	return 0
}

// runChild runs one untraced measurement in a fresh process and parses
// the result from the last line of its output.
func runChild(exe, workload string, seed int64, o options) (result, error) {
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", "0", "-out", o.outDir, "-strict="+strconv.FormatBool(o.strict))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return result{}, err
	}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("last output line is not a result: %w", err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported incorrect outputs (%d of %d failed)", res.Failed, res.Attempted)
	}
	return res, nil
}
