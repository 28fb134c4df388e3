package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
)

// bound is one end_to_end entry of BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBounds(root string) ([]bound, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return spec.EndToEnd, nil
}

// selfcheckRuns is the size of a set, the driver's own: a report made with
// another number would not show what the driver will see.
const selfcheckRuns = 10

// runSelfcheck is the driver's acceptance rule run at home: two sets of
// runs of this one build, every run a fresh process with another seed. For
// each workload and metric the spread of each set (interquartile range over
// median, quartiles as Python's statistics.quantiles gives them) must stay
// within the metric's bound, setup_s excepted, and the second median must not
// be worse than the first by more than the bound. The report is markdown;
// bench/NOISE.md is one of them.
func runSelfcheck(which []workload, seconds float64) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	bounds, err := loadBounds(root)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// values[set][workload][metric] -> one value per run
	var values [2]map[string]map[string][]float64
	for set := 0; set < 2; set++ {
		values[set] = map[string]map[string][]float64{}
		for _, w := range which {
			values[set][w.name] = map[string][]float64{}
			for i := 0; i < selfcheckRuns; i++ {
				seed := 1 + set*selfcheckRuns + i
				line, err := runChild(self, root, w.name, seed, seconds)
				if err != nil {
					return err
				}
				for name, m := range line.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d %s seed %d done\n", set+1, w.name, seed)
			}
		}
	}

	fmt.Printf("\n%d runs of %g s per workload and set. spread = (Q3-Q1)/median; worse = how far the second median is on the wrong side of the first.\n\n", selfcheckRuns, seconds)
	fmt.Println("| workload | metric | unit | median 1 | Q1..Q3 | spread 1 | median 2 | Q1..Q3 | spread 2 | worse | bound | |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|---|---|")
	failed := 0
	for _, w := range which {
		for _, b := range bounds {
			a, c := values[0][w.name][b.Name], values[1][w.name][b.Name]
			m1, m2 := median(a), median(c)
			q1a, q3a := quartiles(a)
			q1c, q3c := quartiles(c)
			s1, s2 := (q3a-q1a)/m1, (q3c-q1c)/m2
			worse := (m2 - m1) / m1
			if b.Better == "higher" {
				worse = -worse
			}
			ok := worse <= b.Bound && (b.Name == "setup_s" || (s1 <= b.Bound && s2 <= b.Bound))
			verdict := "ok"
			if !ok {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %.4g | %.4g..%.4g | %.1f%% | %.4g | %.4g..%.4g | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				w.name, b.Name, b.Unit, m1, q1a, q3a, 100*s1, m2, q1c, q3c, 100*s2, 100*worse, 100*b.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("bench: selfcheck: %d workload/metric pairs outside their bounds", failed)
	}
	fmt.Println("\nselfcheck passed: both sets agree within the bounds of BENCHMARK.json.")
	return nil
}

// runChild runs one end-to-end run as the driver does, in a process of its
// own, and parses its last line.
func runChild(self, root, workload string, seed int, seconds float64) (*resultLine, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("bench: selfcheck run %s seed %d: %v\n%s", workload, seed, err, stderr.String())
	}
	last := bytes.TrimSpace(out)
	last = last[bytes.LastIndexByte(last, '\n')+1:]
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return nil, fmt.Errorf("bench: selfcheck run %s seed %d: last line is not a result: %q", workload, seed, last)
	}
	if !line.Correct || line.Failed != 0 {
		return nil, fmt.Errorf("bench: selfcheck run %s seed %d: not correct: %s", workload, seed, last)
	}
	return &line, nil
}
