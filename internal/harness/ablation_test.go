package harness

import (
	"strings"
	"testing"

	"cftcg/internal/benchmodels"
)

// TestRunAblationAndFormat runs the ablation the way benchtab does: the
// engine variants are tools of one RunModel sweep at a fixed execution
// budget and no wall budget, rendered by the comparison table.
func TestRunAblationAndFormat(t *testing.T) {
	e, err := benchmodels.Get("SolarPV")
	if err != nil {
		t.Fatal(err)
	}
	tools := []Tool{ToolCFTCG, ToolNoIterDiff, ToolNoHints}
	mr, err := RunModel(e, tools, Config{Repetitions: 2, Seed: 1, FuzzMaxExecs: 2000})
	if err != nil {
		t.Fatalf("RunModel: %v", err)
	}
	for _, tool := range tools {
		v, ok := mr.Results[tool]
		if !ok || v.Failed {
			t.Fatalf("%s: missing or failed: %+v", tool, v)
		}
		if v.Decision <= 0 || v.Decision > 100 {
			t.Errorf("%s decision out of range: %v", tool, v.Decision)
		}
		if v.Execs != 2000 {
			t.Errorf("%s ran %d execs per repetition, want the 2000 budget", tool, v.Execs)
		}
	}
	out := FormatComparison([]ModelResult{mr}, tools)
	for _, want := range []string{"SolarPV", "NoIterDiff (DC/CC/MCDC)", "NoHints (DC/CC/MCDC)"} {
		if !strings.Contains(out, want) {
			t.Errorf("comparison lacks %q:\n%s", want, out)
		}
	}
}

// TestFormatComparison pins the table layout (Figure 8's, column for
// column) and shows a failed cell instead of dropping the model's row.
func TestFormatComparison(t *testing.T) {
	results := []ModelResult{{
		Entry: benchmodels.Entry{Name: "SolarPV"},
		Results: map[Tool]ToolResult{
			ToolCFTCG:    {Decision: 100, Condition: 100, MCDC: 100},
			ToolFuzzOnly: {Decision: 69.23, Condition: 69.23, MCDC: 53.84},
		},
	}, {
		Entry: benchmodels.Entry{Name: "TCP"},
		Results: map[Tool]ToolResult{
			ToolCFTCG:    {Decision: 45.45, Condition: 48.57, MCDC: 40},
			ToolFuzzOnly: {Failed: true, FailReason: "deadline 30s exceeded"},
		},
	}}
	want := "Model     |     CFTCG (DC/CC/MCDC) |  FuzzOnly (DC/CC/MCDC)\n" +
		"SolarPV   |  100.0%  100.0%  100.0% |   69.2%   69.2%   53.8%\n" +
		"TCP       |   45.5%   48.6%   40.0% | FAILED: deadline 30s e…\n"
	if got := FormatComparison(results, []Tool{ToolCFTCG, ToolFuzzOnly}); got != want {
		t.Errorf("FormatComparison =\n%s\nwant\n%s", got, want)
	}
}
