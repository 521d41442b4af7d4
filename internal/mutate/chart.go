package mutate

import (
	"fmt"

	"cftcg/internal/codegen"
	"cftcg/internal/model"
	"cftcg/internal/stateflow"
)

// Model-level mutation operators: they rewrite a Stateflow chart in a deep
// copy of the model graph and recompile. Unlike the IR operators these
// exercise the whole lowering pipeline, and they reach chart structure the
// lowered form obscures (transition priority order). A mutation that fails
// to recompile is discarded when it is sampled, and sampling draws the next
// candidate: it would be a build error, not a fault.

// chartSite locates one chart block in the (sub)graph tree by block path.
type chartSite struct {
	path  []model.BlockID // block index per nesting level
	block *model.Block
	chart *stateflow.Chart
}

func findCharts(g *model.Graph, prefix []model.BlockID) []chartSite {
	var out []chartSite
	for i, b := range g.Blocks {
		path := append(append([]model.BlockID(nil), prefix...), model.BlockID(i))
		if ch, ok := b.ChartSpec.(*stateflow.Chart); ok {
			out = append(out, chartSite{path: path, block: b, chart: ch})
		}
		if b.Sub != nil {
			out = append(out, findCharts(b.Sub, path)...)
		}
	}
	return out
}

// cloneModel deep-copies the graph tree, block params and chart specs so a
// mutation cannot leak into the original model or its siblings.
func cloneModel(m *model.Model) *model.Model {
	mm := *m
	mm.Root = *cloneGraph(&m.Root)
	return &mm
}

func cloneGraph(g *model.Graph) *model.Graph {
	ng := &model.Graph{
		Blocks: make([]*model.Block, len(g.Blocks)),
		Lines:  append([]model.Line(nil), g.Lines...),
	}
	for i, b := range g.Blocks {
		nb := *b
		nb.Params = b.Params.Clone()
		if b.Sub != nil {
			nb.Sub = cloneGraph(b.Sub)
		}
		if ch, ok := b.ChartSpec.(*stateflow.Chart); ok {
			nb.ChartSpec = cloneChart(ch)
		}
		ng.Blocks[i] = &nb
	}
	return ng
}

func cloneChart(c *stateflow.Chart) *stateflow.Chart {
	nc := *c
	nc.Inputs = append([]stateflow.Var(nil), c.Inputs...)
	nc.Outputs = append([]stateflow.Var(nil), c.Outputs...)
	nc.Locals = append([]stateflow.Var(nil), c.Locals...)
	nc.States = make([]*stateflow.State, len(c.States))
	for i, s := range c.States {
		cp := *s
		nc.States[i] = &cp
	}
	nc.Transitions = make([]*stateflow.Transition, len(c.Transitions))
	for i, t := range c.Transitions {
		cp := *t
		nc.Transitions[i] = &cp
	}
	return &nc
}

// chartAt resolves a site path inside a cloned model.
func chartAt(m *model.Model, path []model.BlockID) *stateflow.Chart {
	g := &m.Root
	for i, id := range path {
		b := g.Block(id)
		if b == nil {
			return nil
		}
		if i == len(path)-1 {
			ch, _ := b.ChartSpec.(*stateflow.Chart)
			return ch
		}
		g = b.Sub
		if g == nil {
			return nil
		}
	}
	return nil
}

// relSwaps maps each mlfunc relational token to its mutated form. Two-char
// tokens are matched before one-char ones so "<=" never mutates as "<".
var relSwaps = []struct{ from, to string }{
	{">=", ">"}, {"<=", "<"}, {"==", "~="}, {"~=", "=="}, {"!=", "=="},
	{">", ">="}, {"<", "<="},
}

// guardMutations returns every single-token relational mutation of a guard
// expression: for each relational operator occurrence, one mutant guard with
// that occurrence swapped.
func guardMutations(guard string) []struct{ text, desc string } {
	var out []struct{ text, desc string }
	for i := 0; i < len(guard); i++ {
		for _, sw := range relSwaps {
			n := len(sw.from)
			if i+n > len(guard) || guard[i:i+n] != sw.from {
				continue
			}
			// A one-char token must not split a two-char one ("<" inside
			// "<=", "=" handled by never listing bare "=").
			if n == 1 && i+1 < len(guard) && guard[i+1] == '=' {
				continue
			}
			mutated := guard[:i] + sw.to + guard[i+n:]
			out = append(out, struct{ text, desc string }{
				text: mutated,
				desc: fmt.Sprintf("%q -> %q", guard, mutated),
			})
			break // longest token at this offset handled; move on
		}
	}
	return out
}

// chartCandidates lists the model-level mutations, guard relational swaps
// and transition-priority swaps, as builders: each deep-copies the model,
// patches one chart and recompiles only when Generate samples it.
func chartCandidates(c *codegen.Compiled, m *model.Model, cfg Config) []candidate {
	var out []candidate
	add := func(patch func(*stateflow.Chart), path []model.BlockID, op, site string) {
		out = append(out, candidate{op: op, chart: func() *Mutant {
			mm := cloneModel(m)
			ch := chartAt(mm, path)
			if ch == nil {
				return nil
			}
			patch(ch)
			mc, err := codegen.Compile(mm)
			if err != nil {
				return nil // a mutation that breaks lowering is not a measurable fault
			}
			return &Mutant{
				Operator: op,
				Func:     "chart",
				PC:       -1,
				Site:     site,
				Prog:     mc.Prog,
				Plan:     mc.Plan,
				SamePlan: mc.Plan.NumBranches == c.Plan.NumBranches,
			}
		}})
	}

	for _, cs := range findCharts(&m.Root, nil) {
		chartName := cs.chart.Name
		if cfg.enabled("chart-guard") {
			for ti, t := range cs.chart.Transitions {
				for _, gm := range guardMutations(t.Guard) {
					add(func(ch *stateflow.Chart) { ch.Transitions[ti].Guard = gm.text }, cs.path, "chart-guard",
						fmt.Sprintf("chart %s %s: guard %s", chartName, t.Label(), gm.desc))
				}
			}
		}
		if cfg.enabled("chart-priority") {
			// Swap the two highest-priority outgoing transitions of each
			// state that has a real priority order to permute.
			for _, st := range cs.chart.States {
				from := cs.chart.From(st.Name)
				if len(from) < 2 || from[0].Priority == from[1].Priority {
					continue
				}
				a := transitionIndex(cs.chart, from[0])
				b := transitionIndex(cs.chart, from[1])
				if a < 0 || b < 0 {
					continue
				}
				add(func(ch *stateflow.Chart) {
					ch.Transitions[a].Priority, ch.Transitions[b].Priority =
						ch.Transitions[b].Priority, ch.Transitions[a].Priority
				}, cs.path, "chart-priority",
					fmt.Sprintf("chart %s state %s: swap priorities of %s and %s",
						chartName, st.Name, from[0].Label(), from[1].Label()))
			}
		}
	}
	return out
}

func transitionIndex(c *stateflow.Chart, t *stateflow.Transition) int {
	for i, x := range c.Transitions {
		if x == t {
			return i
		}
	}
	return -1
}
