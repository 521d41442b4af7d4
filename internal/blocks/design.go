package blocks

import (
	"fmt"

	"cftcg/internal/mlfunc"
	"cftcg/internal/model"
	"cftcg/internal/stateflow"
)

// Design is the fully analyzed form of a model: every graph checked against
// the catalog, every output port typed, every script and chart parsed once
// and shared by all downstream consumers (coverage plan builder, code
// generator, interpreter). It corresponds to the paper's "Model Parser"
// output feeding both fuzz-driver generation and schedule conversion.
type Design struct {
	Model *model.Model
	Root  *GraphInfo

	// Funcs caches the parsed body of every MatlabFunction block.
	Funcs map[*model.Block]*mlfunc.Function
	// Charts caches every Chart block's validated chart and parsed
	// guard/action sources.
	Charts map[*model.Block]*ChartInfo
	// IfConds caches the parsed condition expressions of every If block,
	// typed against its inputs (u1..un).
	IfConds map[*model.Block][]mlfunc.Expr
}

// ChartInfo bundles a chart with its parsed guards and actions.
type ChartInfo struct {
	Chart *stateflow.Chart
	// Guards maps each transition to its parsed guard (nil = always true).
	Guards map[*stateflow.Transition]mlfunc.Expr
	// TransActs maps each transition to its parsed action statements.
	TransActs map[*stateflow.Transition][]mlfunc.Stmt
	// Entry/During/Exit map states to their parsed action statements.
	Entry  map[*stateflow.State][]mlfunc.Stmt
	During map[*stateflow.State][]mlfunc.Stmt
	Exit   map[*stateflow.State][]mlfunc.Stmt
}

// GraphInfo is the analyzed form of one graph (the root diagram or one
// subsystem's contents).
type GraphInfo struct {
	Path  string
	Block *model.Block // owning subsystem block; nil for the root
	Graph *model.Graph

	InCount  map[model.BlockID]int
	OutCount map[model.BlockID]int
	// Source maps every connected input port to its driver.
	Source map[model.PortRef]model.PortRef
	// OutType holds the resolved data type of every output port.
	OutType map[model.PortRef]model.DType
	// Feed[id][p] reports whether input port p of block id is direct
	// feedthrough (its current-step value is needed to produce outputs).
	Feed map[model.BlockID][]bool
	// Children maps subsystem block IDs to their analyzed inner graphs.
	Children map[model.BlockID]*GraphInfo
	// Order is the execution schedule, filled in by the schedule package.
	Order []model.BlockID
}

// InTypes returns the resolved types of block id's input ports, or false if
// any is not yet known.
func (gi *GraphInfo) InTypes(id model.BlockID) ([]model.DType, bool) {
	n := gi.InCount[id]
	types := make([]model.DType, n)
	for p := 0; p < n; p++ {
		src, ok := gi.Source[model.PortRef{Block: id, Port: p}]
		if !ok {
			return nil, false
		}
		t, ok := gi.OutType[src]
		if !ok {
			return nil, false
		}
		types[p] = t
	}
	return types, true
}

// InType returns the resolved type of one input port. It panics if called
// before resolution completed (a programming error in downstream passes).
func (gi *GraphInfo) InType(id model.BlockID, port int) model.DType {
	src, ok := gi.Source[model.PortRef{Block: id, Port: port}]
	if !ok {
		panic(fmt.Sprintf("blocks: %s: block %d input %d unconnected", gi.Path, id, port))
	}
	t, ok := gi.OutType[src]
	if !ok {
		panic(fmt.Sprintf("blocks: %s: block %d input %d untyped", gi.Path, id, port))
	}
	return t
}

// Resolve analyzes a model: structural validation, catalog checking, port
// wiring, type resolution, feedthrough computation, and script/chart parsing.
func Resolve(m *model.Model) (*Design, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	d := &Design{
		Model:   m,
		Funcs:   map[*model.Block]*mlfunc.Function{},
		Charts:  map[*model.Block]*ChartInfo{},
		IfConds: map[*model.Block][]mlfunc.Expr{},
	}
	root, err := d.buildGraphInfo(&m.Root, m.Name, nil)
	if err != nil {
		return nil, err
	}
	d.Root = root

	// Seed root inport types from their declarations, then run the type
	// fixpoint over the whole hierarchy.
	for _, p := range m.Inports() {
		d.Root.OutType[model.PortRef{Block: p.ID, Port: 0}] = p.Params.DType("Type", model.Float64)
	}
	for round := 0; ; round++ {
		progress, done, err := d.resolveGraph(root)
		if err != nil {
			return nil, err
		}
		if done {
			break
		}
		if !progress {
			return nil, fmt.Errorf("blocks: %s: type resolution stuck — a delay inside an algebraic-looking cycle probably needs an explicit Type parameter", root.Path)
		}
		if round > 10000 {
			return nil, fmt.Errorf("blocks: %s: type resolution did not converge", root.Path)
		}
	}

	if err := d.computeFeedthrough(root); err != nil {
		return nil, err
	}
	if err := d.parseUserCode(root); err != nil {
		return nil, err
	}
	return d, nil
}

// buildGraphInfo checks one graph against the catalog and recurses into
// subsystems. Types are not resolved yet.
func (d *Design) buildGraphInfo(g *model.Graph, path string, owner *model.Block) (*GraphInfo, error) {
	gi := &GraphInfo{
		Path:     path,
		Block:    owner,
		Graph:    g,
		InCount:  map[model.BlockID]int{},
		OutCount: map[model.BlockID]int{},
		Source:   map[model.PortRef]model.PortRef{},
		OutType:  map[model.PortRef]model.DType{},
		Feed:     map[model.BlockID][]bool{},
		Children: map[model.BlockID]*GraphInfo{},
	}
	for _, b := range g.Blocks {
		spec, err := Get(b.Kind)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", path, b.Name, err)
		}
		nin, nout, err := d.portCounts(spec, b)
		if err != nil {
			return nil, err
		}
		gi.InCount[b.ID] = nin
		gi.OutCount[b.ID] = nout
		if IsSubsystem(b.Kind) {
			child, err := d.buildGraphInfo(b.Sub, path+"/"+b.Name, b)
			if err != nil {
				return nil, err
			}
			gi.Children[b.ID] = child
		}
	}
	for _, l := range g.Lines {
		if l.Src.Port >= gi.OutCount[l.Src.Block] {
			return nil, fmt.Errorf("blocks: %s/%s: no output port %d", path, g.Block(l.Src.Block).Name, l.Src.Port)
		}
		if l.Dst.Port >= gi.InCount[l.Dst.Block] {
			return nil, fmt.Errorf("blocks: %s/%s: no input port %d", path, g.Block(l.Dst.Block).Name, l.Dst.Port)
		}
		gi.Source[l.Dst] = l.Src
	}
	for _, b := range g.Blocks {
		for p := 0; p < gi.InCount[b.ID]; p++ {
			if _, ok := gi.Source[model.PortRef{Block: b.ID, Port: p}]; !ok {
				return nil, fmt.Errorf("blocks: %s/%s: input port %d is unconnected", path, b.Name, p)
			}
		}
	}
	return gi, nil
}

// script returns a MatlabFunction block's parsed body, parsing it on first
// use. The cache is d.Funcs, so one Resolve parses each script once while
// concurrent Resolves share nothing.
func (d *Design) script(b *model.Block) (*mlfunc.Function, error) {
	if f, ok := d.Funcs[b]; ok {
		return f, nil
	}
	f, err := ParseScript(b)
	if err != nil {
		return nil, err
	}
	d.Funcs[b] = f
	return f, nil
}

// portCounts returns a block's input and output port counts: from the
// catalog callbacks, or for a MatlabFunction block from its parsed script.
func (d *Design) portCounts(spec *Spec, b *model.Block) (nin, nout int, err error) {
	if b.Kind == "MatlabFunction" {
		f, err := d.script(b)
		if err != nil {
			return 0, 0, err
		}
		return len(f.Inputs()), len(f.Outputs()), nil
	}
	if nin, err = spec.InCount(b); err != nil {
		return 0, 0, err
	}
	nout, err = spec.OutCount(b)
	return nin, nout, err
}

// graphResolved reports whether every output port in the graph (and its
// nested graphs) has a resolved type.
func graphResolved(gi *GraphInfo) bool {
	for _, b := range gi.Graph.Blocks {
		if gi.OutCount[b.ID] > 0 {
			if _, ok := gi.OutType[model.PortRef{Block: b.ID, Port: 0}]; !ok {
				return false
			}
		}
	}
	for _, child := range gi.Children {
		if !graphResolved(child) {
			return false
		}
	}
	return true
}

// resolveGraph performs one fixpoint round. outer inport types must already
// be seeded by the caller (root) or parent (subsystems).
func (d *Design) resolveGraph(gi *GraphInfo) (progress, done bool, err error) {
	done = true
	for _, b := range gi.Graph.Blocks {
		nout := gi.OutCount[b.ID]

		if IsSubsystem(b.Kind) {
			// Keep recursing until the *whole* child graph is typed —
			// explicitly-typed outports can resolve the subsystem's
			// interface before its internals.
			child := gi.Children[b.ID]
			_, outsDone := gi.OutType[model.PortRef{Block: b.ID, Port: 0}]
			if (nout == 0 || outsDone) && graphResolved(child) {
				continue
			}
			done = false
			p, d2, err := d.resolveSubsystem(gi, b)
			if err != nil {
				return false, false, err
			}
			progress = progress || p
			done = done && d2 && graphResolved(child)
			continue
		}

		if nout == 0 {
			continue
		}
		if _, ok := gi.OutType[model.PortRef{Block: b.ID, Port: 0}]; ok {
			continue // already resolved
		}
		done = false

		spec, _ := Get(b.Kind)
		isScript := b.Kind == "MatlabFunction"
		if spec.Infer == nil && !isScript {
			return false, false, fmt.Errorf("blocks: %s/%s: kind %s has no type inference", gi.Path, b.Name, b.Kind)
		}
		in, ok := gi.InTypes(b.ID)
		if !ok {
			// Passthrough blocks with an explicit Type parameter can
			// resolve without inputs (needed to break cycles at delays).
			if t := b.Params.DType("Type", 255); t != 255 && nout == 1 {
				gi.OutType[model.PortRef{Block: b.ID, Port: 0}] = t
				progress = true
			}
			continue
		}
		var outs []model.DType
		if isScript {
			// A script's outputs have the types it declares.
			f, err := d.script(b)
			if err != nil {
				return false, false, err
			}
			outs = scriptOutTypes(f)
		} else if outs, err = spec.Infer(b, in); err != nil {
			return false, false, err
		}
		if len(outs) != nout {
			return false, false, fmt.Errorf("blocks: %s/%s: inference returned %d types for %d outputs", gi.Path, b.Name, len(outs), nout)
		}
		for i, t := range outs {
			if !t.Valid() {
				return false, false, fmt.Errorf("blocks: %s/%s: invalid inferred type on output %d", gi.Path, b.Name, i)
			}
			gi.OutType[model.PortRef{Block: b.ID, Port: i}] = t
		}
		progress = true
	}
	return progress, done, nil
}

// resolveSubsystem pushes outer input types into a child graph, advances its
// fixpoint, and pulls inner Outport types back out when available.
func (d *Design) resolveSubsystem(gi *GraphInfo, b *model.Block) (progress, done bool, err error) {
	child := gi.Children[b.ID]
	ctrl := ControlPorts(b.Kind)

	// Seed inner Inport types from declared types or outer drivers.
	for _, ip := range child.Graph.BlocksOfKind("Inport") {
		ref := model.PortRef{Block: ip.ID, Port: 0}
		if _, ok := child.OutType[ref]; ok {
			continue
		}
		if t := ip.Params.DType("Type", 255); t != 255 {
			child.OutType[ref] = t
			progress = true
			continue
		}
		// Inner index k maps to outer data port (k-1)+ctrl.
		outerPort := int(ip.Params.Int("Index", 1)) - 1 + ctrl
		src, ok := gi.Source[model.PortRef{Block: b.ID, Port: outerPort}]
		if !ok {
			return false, false, fmt.Errorf("blocks: %s/%s: subsystem input %d unconnected", gi.Path, b.Name, outerPort)
		}
		if t, ok := gi.OutType[src]; ok {
			child.OutType[ref] = t
			progress = true
		}
	}

	p2, _, err := d.resolveGraph(child)
	if err != nil {
		return false, false, err
	}
	progress = progress || p2

	// Pull inner Outport types to the subsystem's output ports.
	resolvedAll := true
	for _, op := range sortedByIndex(child.Graph.BlocksOfKind("Outport")) {
		outIdx := int(op.Params.Int("Index", 1)) - 1
		ref := model.PortRef{Block: b.ID, Port: outIdx}
		if _, ok := gi.OutType[ref]; ok {
			continue
		}
		var t model.DType
		if dt := op.Params.DType("Type", 255); dt != 255 {
			t = dt
		} else {
			src, ok := child.Source[model.PortRef{Block: op.ID, Port: 0}]
			if !ok {
				return false, false, fmt.Errorf("blocks: %s/%s: inner outport %s unconnected", gi.Path, b.Name, op.Name)
			}
			var known bool
			t, known = child.OutType[src]
			if !known {
				resolvedAll = false
				continue
			}
		}
		gi.OutType[ref] = t
		progress = true
	}
	return progress, resolvedAll, nil
}

func sortedByIndex(bs []*model.Block) []*model.Block {
	out := append([]*model.Block(nil), bs...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Params.Int("Index", 0) < out[j-1].Params.Int("Index", 0); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// computeFeedthrough fills Feed for every block. For primitives it comes
// from the catalog; for subsystems it is the recursive reachability from
// each data input to any inner Outport through feedthrough edges. Control
// ports always feed through (the condition is read before execution).
func (d *Design) computeFeedthrough(gi *GraphInfo) error {
	for _, b := range gi.Graph.Blocks {
		nin := gi.InCount[b.ID]
		feed := make([]bool, nin)
		for i := range feed {
			feed[i] = true
		}
		if IsSubsystem(b.Kind) {
			child := gi.Children[b.ID]
			if err := d.computeFeedthrough(child); err != nil {
				return err
			}
			ctrl := ControlPorts(b.Kind)
			for _, ip := range child.Graph.BlocksOfKind("Inport") {
				outerPort := int(ip.Params.Int("Index", 1)) - 1 + ctrl
				if outerPort < nin {
					feed[outerPort] = reachesOutport(child, ip.ID)
				}
			}
		} else {
			spec, _ := Get(b.Kind)
			for _, p := range spec.NonFeedthrough {
				if p < nin {
					feed[p] = false
				}
			}
		}
		gi.Feed[b.ID] = feed
	}
	return nil
}

// reachesOutport reports whether a feedthrough path exists from the given
// inner Inport to any Outport of the child graph.
func reachesOutport(gi *GraphInfo, from model.BlockID) bool {
	visited := map[model.BlockID]bool{from: true}
	stack := []model.BlockID{from}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if gi.Graph.Block(id).Kind == "Outport" {
			return true
		}
		for p := 0; p < gi.OutCount[id]; p++ {
			for _, dst := range gi.Graph.FanOut(model.PortRef{Block: id, Port: p}) {
				df := gi.Feed[dst.Block]
				if dst.Port < len(df) && !df[dst.Port] {
					continue // value consumed next step, not this one
				}
				if !visited[dst.Block] {
					visited[dst.Block] = true
					stack = append(stack, dst.Block)
				}
			}
		}
	}
	return false
}

// parseUserCode parses MatlabFunction scripts, chart guards/actions, and If
// block conditions once, caching the results on the Design.
func (d *Design) parseUserCode(gi *GraphInfo) error {
	for _, b := range gi.Graph.Blocks {
		switch b.Kind {
		case "MatlabFunction":
			f, err := d.script(b)
			if err != nil {
				return err
			}
			if gi.InCount[b.ID] != len(f.Inputs()) {
				return fmt.Errorf("blocks: %s/%s: script declares %d inputs, %d wired", gi.Path, b.Name, len(f.Inputs()), gi.InCount[b.ID])
			}

		case "Chart":
			c, err := ChartOf(b)
			if err != nil {
				return err
			}
			if err := c.Validate(); err != nil {
				return fmt.Errorf("blocks: %s/%s: %w", gi.Path, b.Name, err)
			}
			ci, err := parseChart(c)
			if err != nil {
				return fmt.Errorf("blocks: %s/%s: %w", gi.Path, b.Name, err)
			}
			d.Charts[b] = ci

		case "If":
			conds, err := conditionExprs(b)
			if err != nil {
				return err
			}
			syms := map[string]model.DType{}
			for p := 0; p < gi.InCount[b.ID]; p++ {
				syms[fmt.Sprintf("u%d", p+1)] = gi.InType(b.ID, p)
			}
			exprs := make([]mlfunc.Expr, len(conds))
			for i, src := range conds {
				e, err := mlfunc.ParseExpr(src, syms)
				if err != nil {
					return fmt.Errorf("blocks: %s/%s: condition %d: %w", gi.Path, b.Name, i+1, err)
				}
				exprs[i] = e
			}
			d.IfConds[b] = exprs
		}
	}
	for _, child := range gi.Children {
		if err := d.parseUserCode(child); err != nil {
			return err
		}
	}
	return nil
}

func parseChart(c *stateflow.Chart) (*ChartInfo, error) {
	ci := &ChartInfo{
		Chart:     c,
		Guards:    map[*stateflow.Transition]mlfunc.Expr{},
		TransActs: map[*stateflow.Transition][]mlfunc.Stmt{},
		Entry:     map[*stateflow.State][]mlfunc.Stmt{},
		During:    map[*stateflow.State][]mlfunc.Stmt{},
		Exit:      map[*stateflow.State][]mlfunc.Stmt{},
	}
	syms := c.Symbols()
	for _, t := range c.Transitions {
		if t.Guard != "" {
			e, err := mlfunc.ParseExpr(t.Guard, syms)
			if err != nil {
				return nil, fmt.Errorf("transition %s: %w", t.Label(), err)
			}
			ci.Guards[t] = e
		}
		if t.Action != "" {
			st, err := mlfunc.ParseStmts(t.Action, syms)
			if err != nil {
				return nil, fmt.Errorf("transition %s action: %w", t.Label(), err)
			}
			ci.TransActs[t] = st
		}
	}
	for _, s := range c.States {
		for _, part := range []struct {
			src string
			dst map[*stateflow.State][]mlfunc.Stmt
		}{
			{s.Entry, ci.Entry}, {s.During, ci.During}, {s.Exit, ci.Exit},
		} {
			if part.src == "" {
				continue
			}
			st, err := mlfunc.ParseStmts(part.src, syms)
			if err != nil {
				return nil, fmt.Errorf("state %s: %w", s.Name, err)
			}
			part.dst[s] = st
		}
	}
	return ci, nil
}
