// tcpfuzz fuzzes the TCP three-way handshake benchmark — the model whose
// deep coverage needs *ordered* input sequences (SYN, then a matching ACK,
// then in-order segments). It prints the coverage timeline and decodes the
// test case that first reached the ESTABLISHED state.
package main

import (
	"fmt"
	"log"
	"time"

	"cftcg/internal/benchmodels"
	"cftcg/internal/core"
	"cftcg/internal/fuzz"
	"cftcg/internal/model"
)

func main() {
	entry, err := benchmodels.Get("TCP")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := core.FromModel(entry.Build())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TCP model: %d branch slots, tuple %d bytes (Flags u8, Seq i32, Cmd i8)\n\n",
		sys.BranchCount(), sys.Layout().TupleSize)

	res, err := sys.Fuzz(fuzz.Options{Seed: 7, Budget: 3 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("campaign: %d executions, %d iterations, corpus %d, %d test cases\n",
		res.Execs, res.Steps, res.Corpus, len(res.Suite.Cases))
	fmt.Println(res.Report)

	fmt.Println("\ncoverage growth (decision %):")
	last := -1.0
	for _, p := range res.Timeline {
		if p.Decision != last {
			fmt.Printf("  %8s  execs %-8d %5.1f%%\n", p.Elapsed.Round(time.Millisecond), p.Execs, p.Decision)
			last = p.Decision
		}
	}

	// Find a case that drives the connection to ESTABLISHED (stateCode 3):
	// replay each case and watch the State outport.
	lay := sys.Layout()
	for i, tc := range res.Suite.Cases {
		if established(sys, tc.Data) {
			fmt.Printf("\ncase %d reaches ESTABLISHED; decoded segments:\n", i)
			fmt.Print(decodeSegments(lay, tc.Data))
			return
		}
	}
	fmt.Println("\nno case reached ESTABLISHED in this short run — try a larger -budget")
}

// established replays one case and reports whether the State outport ever
// reads 3 (the chart's Established code).
func established(sys *core.System, data []byte) bool {
	_, rec := sys.Replay([][]byte{data})
	// Find the Established entry decision via its label.
	for i := range sys.Compiled.Plan.Decisions {
		d := &sys.Compiled.Plan.Decisions[i]
		if d.Label == "TCP/connection SynRcvd->Established[ack && ok]" {
			return rec.Total[d.OutcomeBase+1] != 0
		}
	}
	return false
}

func decodeSegments(lay model.Layout, data []byte) string {
	out := ""
	n := lay.Steps(data)
	in := make([]uint64, len(lay.Fields))
	for i := 0; i < n && i < 12; i++ {
		lay.Decode(in, data, i)
		flags := in[0]
		seq := model.DecodeInt(lay.Fields[1].Type, in[1])
		cmd := model.DecodeInt(lay.Fields[2].Type, in[2])
		names := ""
		for bit, nm := range map[uint64]string{1: "SYN", 2: "ACK", 4: "FIN", 8: "RST"} {
			if flags&bit != 0 {
				names += nm + " "
			}
		}
		if names == "" {
			names = "-"
		}
		out += fmt.Sprintf("  seg %2d: flags=%-12s seq=%-11d cmd=%d\n", i, names, seq, cmd)
	}
	if n > 12 {
		out += fmt.Sprintf("  ... %d more segments\n", n-12)
	}
	return out
}
