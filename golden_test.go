package cftcg_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"cftcg/internal/analysis"
	"cftcg/internal/benchmodels"
	"cftcg/internal/campaign"
	"cftcg/internal/codegen"
	"cftcg/internal/coverage"
	"cftcg/internal/fuzz"
	"cftcg/internal/sldv"
	"cftcg/internal/testcase"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this tree's outputs")

// fuzzRow is one fixed-seed campaign's output of record. It leaves out
// everything that depends on wall-clock time (case discovery times, the
// timeline's elapsed stamps, finding times).
type fuzzRow struct {
	Execs       int64        `json:"execs"`
	Steps       int64        `json:"steps"`
	Corpus      int          `json:"corpus"`
	Cases       int          `json:"cases"`
	Decision    string       `json:"decision"` // covered/total
	Condition   string       `json:"condition"`
	MCDC        string       `json:"mcdc"`
	Findings    []findingRow `json:"findings,omitempty"`
	CasesSHA256 string       `json:"casesSHA256"`
}

type findingRow struct {
	Kind  string `json:"kind"`
	Site  string `json:"site"`
	Step  int    `json:"step"`
	Count int    `json:"count"`
}

// sldvRow is one model's bounded SLDV-style analysis output of record.
type sldvRow struct {
	Nodes       int64  `json:"nodes"`
	Witnesses   int64  `json:"witnesses"`
	Cases       int    `json:"cases"`
	Decision    string `json:"decision"`
	Condition   string `json:"condition"`
	MCDC        string `json:"mcdc"`
	CasesSHA256 string `json:"casesSHA256"`
}

// analyzeRow is one model's static-analysis output of record: the lint
// issues, the dead objectives and a digest of the influence map that
// `cftcg analyze` prints.
type analyzeRow struct {
	Issues          []string `json:"issues,omitempty"`
	Dead            []int    `json:"deadObjectives,omitempty"`
	InfluenceSHA256 string   `json:"influenceSHA256"`
}

// TestOutputsOfRecord recomputes the fixed-seed outputs every refactor must
// leave unchanged and compares them with testdata/golden, for the 8
// benchmark models:
//   - 3,000-exec fuzz campaigns at seeds 1 and 2: at the default and a
//     4-tuple input cap, in fuzz-only mode, and as two-shard campaigns;
//   - a 3,000-exec seed-1 campaign at 100 instructions of fuel, whose step
//     hangs pin the hang pcs and the partial coverage of aborted steps;
//   - the bounded SLDV analysis at depth 5 and 40,000 nodes;
//   - `cftcg analyze`'s report.
//
// A change that moves a row on purpose regenerates the files with -update
// and names the row and the reason in CHANGES.md. -short checks SolarPV only.
func TestOutputsOfRecord(t *testing.T) {
	names := benchmodels.Names()
	if testing.Short() && !*update {
		names = []string{"SolarPV"}
	}
	fuzzRows := map[string]fuzzRow{}
	sldvRows := map[string]sldvRow{}
	analyzeRows := map[string]analyzeRow{}
	for _, name := range names {
		e, err := benchmodels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := codegen.Compile(e.Build())
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2} {
			for _, maxTuples := range []int{0, 4} {
				key := fmt.Sprintf("%s/seed%d/maxTuples%d", name, seed, maxTuples)
				fuzzRows[key] = fuzzRecord(c, fuzz.Options{Seed: seed, MaxExecs: 3000, MaxTuples: maxTuples})
			}
			fuzzRows[fmt.Sprintf("%s/seed%d/fuzzOnly", name, seed)] =
				fuzzRecord(c, fuzz.Options{Mode: fuzz.ModeFuzzOnly, Seed: seed, MaxExecs: 3000})
			fuzzRows[fmt.Sprintf("%s/seed%d/shards2", name, seed)] =
				campaignRecord(t, c, fuzz.Options{Seed: seed, MaxExecs: 3000})
		}
		fuzzRows[name+"/seed1/fuel100"] = fuzzRecord(c, fuzz.Options{Seed: 1, MaxExecs: 3000, Fuel: 100})
		sldvRows[name] = sldvRecord(t, c)
		analyzeRows[name] = analyzeRecord(c)
	}
	complete := len(names) == len(benchmodels.Names())
	checkGolden(t, "testdata/golden/fuzz.json", fuzzRows, complete)
	checkGolden(t, "testdata/golden/sldv.json", sldvRows, complete)
	checkGolden(t, "testdata/golden/analyze.json", analyzeRows, complete)
}

func fuzzRecord(c *codegen.Compiled, opts fuzz.Options) fuzzRow {
	return resultRow(fuzz.MustEngine(c, opts).Run())
}

// campaignRecord runs a two-shard campaign with the per-shard options opts.
func campaignRecord(t *testing.T, c *codegen.Compiled, opts fuzz.Options) fuzzRow {
	t.Helper()
	cm, err := campaign.New(c, campaign.Config{Shards: 2, Fuzz: opts})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cm.Run()
	if err != nil {
		t.Fatal(err)
	}
	return resultRow(res)
}

func resultRow(res *fuzz.Result) fuzzRow {
	row := fuzzRow{
		Execs: res.Execs, Steps: res.Steps, Corpus: res.Corpus, Cases: len(res.Suite.Cases),
		CasesSHA256: casesSHA256(res.Suite.Cases),
	}
	row.Decision, row.Condition, row.MCDC = coverageCounts(res.Report)
	for _, f := range res.Findings {
		row.Findings = append(row.Findings, findingRow{Kind: f.Kind.String(), Site: f.Site, Step: f.Step, Count: f.Count})
	}
	return row
}

func sldvRecord(t *testing.T, c *codegen.Compiled) sldvRow {
	t.Helper()
	res, err := sldv.Run(c, sldv.Options{MaxDepth: 5, NodeBudget: 40000})
	if err != nil {
		t.Fatal(err)
	}
	row := sldvRow{
		Nodes: res.Nodes, Witnesses: res.Witnesses, Cases: len(res.Suite.Cases),
		CasesSHA256: casesSHA256(res.Suite.Cases),
	}
	row.Decision, row.Condition, row.MCDC = coverageCounts(res.Report)
	return row
}

// coverageCounts renders the decision, condition and MCDC counts as
// covered/total.
func coverageCounts(r coverage.Report) (decision, condition, mcdc string) {
	return fmt.Sprintf("%d/%d", r.DecisionCovered, r.DecisionTotal),
		fmt.Sprintf("%d/%d", r.CondCovered, r.CondTotal),
		fmt.Sprintf("%d/%d", r.MCDCCovered, r.MCDCTotal)
}

// casesSHA256 digests a suite: each case's length, then its bytes.
func casesSHA256(cases []testcase.Case) string {
	h := sha256.New()
	for _, tc := range cases {
		binary.Write(h, binary.LittleEndian, uint64(len(tc.Data)))
		h.Write(tc.Data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func analyzeRecord(c *codegen.Compiled) analyzeRow {
	row := analyzeRow{Dead: analysis.DeadObjectives(c.Prog, c.Plan)}
	for _, is := range analysis.Verify(c.Prog, c.Plan) {
		row.Issues = append(row.Issues, is.String())
	}
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, analysis.ComputeInfluence(c.Prog, c.Plan).Branch)
	row.InfluenceSHA256 = hex.EncodeToString(h.Sum(nil))
	return row
}

// checkGolden compares rows, keyed by model and options, with the golden
// file at path; complete says every row of the file was recomputed, so a
// row missing from got is a failure too. With -update it rewrites the file.
func checkGolden[R any](t *testing.T, path string, got map[string]R, complete bool) {
	t.Helper()
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want map[string]R
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	for key, r := range got {
		g, _ := json.Marshal(r)
		w, ok := want[key]
		if !ok {
			t.Errorf("%s: no row %s; got %s", path, key, g)
			continue
		}
		if w, _ := json.Marshal(w); string(w) != string(g) {
			t.Errorf("%s: row %s moved:\n got  %s\n want %s", path, key, g, w)
		}
	}
	if complete && len(got) != len(want) {
		t.Errorf("%s: recomputed %d rows, file has %d", path, len(got), len(want))
	}
}
