package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"shadowmeter/internal/core"
	"shadowmeter/internal/resolversim"
	"shadowmeter/internal/runner"
)

// refTable maps a workload name to the reference digest of each ring
// entry: sha256 of Report.JSON for solo worlds, of the batch JSON for
// campaigns.
type refTable map[string][]string

//go:embed refs.json
var refsJSON []byte

func loadRefs() (refTable, error) {
	var t refTable
	if err := json.Unmarshal(refsJSON, &t); err != nil {
		return nil, fmt.Errorf("reading refs.json: %w", err)
	}
	return t, nil
}

// want returns the reference digest of ring entry i.
func (t refTable) want(workload string, i int64) (string, bool) {
	list := t[workload]
	if i < 0 || i >= int64(len(list)) || list[i] == "" {
		return "", false
	}
	return list[i], true
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkDigest compares an output digest with the reference.
func checkDigest(refs refTable, workload string, world int64, got string) error {
	want, ok := refs.want(workload, world)
	if !ok {
		return fmt.Errorf("%s world %d: no reference digest", workload, world)
	}
	if got != want {
		return fmt.Errorf("%s world %d: output digest %s, reference %s", workload, world, got[:12], want[:12])
	}
	return nil
}

// checkSolo verifies one solo trial: the Report.JSON digest and the
// paper's invariants — no exploit-db signature matches, no unsolicited
// requests at root or TLD servers, and (when Phase II ran) a non-empty
// Table 2.
func checkSolo(refs refTable, w *workload, world int64, e *core.Experiment, rep *core.Report) error {
	b, err := rep.JSON()
	if err != nil {
		return fmt.Errorf("%s world %d: encoding report: %w", w.name, world, err)
	}
	if err := checkDigest(refs, w.name, world, digest(b)); err != nil {
		return err
	}
	if n := rep.Incentives51.ExploitMatches + rep.Incentives52.ExploitMatches; n != 0 {
		return fmt.Errorf("%s world %d: %d exploit signature matches", w.name, world, n)
	}
	infra := make(map[string]bool)
	for _, d := range e.World.DNSDests {
		if d.Kind == "root" || d.Kind == "tld" {
			infra[d.Name] = true
		}
	}
	for _, u := range e.AllEvents() {
		if infra[u.Sent.DstName] {
			return fmt.Errorf("%s world %d: unsolicited request for a decoy sent to %s", w.name, world, u.Sent.DstName)
		}
	}
	if w.phase2 && len(rep.Table2) == 0 {
		return fmt.Errorf("%s world %d: empty Table 2", w.name, world)
	}
	return nil
}

// infraNames are the root and TLD destination names as they key the
// batch headlines' dest_ratio/ entries.
func infraNames() []string {
	var out []string
	for _, r := range resolversim.RootServers {
		out = append(out, r.Name)
	}
	for _, t := range resolversim.TLDServers {
		out = append(out, "."+t.Zone)
	}
	return out
}

// checkCampaignTrials counts the trials of a batch that break an
// invariant visible in their headlines: a non-zero problematic-path
// ratio at a root or TLD server, or an empty Table 2.
func checkCampaignTrials(res *runner.Result) (failed int, reason string) {
	names := infraNames()
	for _, tr := range res.Trials {
		bad := ""
		for _, n := range names {
			if tr.Headline["dest_ratio/"+n] != 0 {
				bad = fmt.Sprintf("trial %d: unsolicited requests at %s", tr.Trial, n)
			}
		}
		located := false
		for k := range tr.Headline {
			if strings.HasPrefix(k, "table2_located/") {
				located = true
			}
		}
		if !located {
			bad = fmt.Sprintf("trial %d: empty Table 2", tr.Trial)
		}
		if bad != "" {
			failed++
			reason = bad
		}
	}
	return failed, reason
}

// recordRefs prints the reference digests of the workload's first n
// ring entries as a JSON list, for refs.json.
func recordRefs(o options, n int) error {
	w := workloadByName(o.workload)
	out := make([]string, n)
	for i := range out {
		world := int64(i)
		if w.solo {
			e := core.NewExperiment(soloConfig(world))
			rep := runPipeline(e, w)
			b, err := rep.JSON()
			if err != nil {
				return err
			}
			out[i] = digest(b)
		} else {
			res := runner.Run(runner.Config{
				Trials: campaignTrials, Workers: campaignWorkers(),
				BaseSeed: campaignBaseSeed(world), Core: campaignCore(),
			})
			b, err := res.JSON()
			if err != nil {
				return err
			}
			out[i] = digest(b)
		}
		fmt.Fprintf(os.Stderr, "%s world %d: %s\n", w.name, world, out[i])
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
