package graph_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"gqs/internal/engine"
	"gqs/internal/eval"
	"gqs/internal/functions"
	"gqs/internal/graph"
	"gqs/internal/value"
)

// The property-read contract of DESIGN.md §17: a snapshot's columns
// change where properties live, never what any reader sees. These tests
// hold every reader to a reference model with the old semantics — one
// plain map per element — on a sealed small graph (no columns) and a
// bulk graph (node id/k0 columns, an all-absent relationship id column),
// before and after overlay writes and ResetToBase.

// propRef is the reference model: each live element's complete property
// map, and each node's labels.
type propRef struct {
	nodes  map[graph.ID]map[string]value.Value
	rels   map[graph.ID]map[string]value.Value
	labels map[graph.ID][]string
	types  map[graph.ID]string
	ends   map[graph.ID][2]graph.ID
}

func (r *propRef) clone() *propRef {
	c := &propRef{
		nodes:  map[graph.ID]map[string]value.Value{},
		rels:   map[graph.ID]map[string]value.Value{},
		labels: map[graph.ID][]string{},
		types:  map[graph.ID]string{},
		ends:   map[graph.ID][2]graph.ID{},
	}
	for id, m := range r.nodes {
		c.nodes[id] = copyProps(m)
		c.labels[id] = r.labels[id]
	}
	for id, m := range r.rels {
		c.rels[id] = copyProps(m)
		c.types[id] = r.types[id]
		c.ends[id] = r.ends[id]
	}
	return c
}

func copyProps(m map[string]value.Value) map[string]value.Value {
	c := make(map[string]value.Value, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// plainRef records a plain (unsealed) graph, whose maps are complete.
func plainRef(g *graph.Graph) *propRef {
	r := (&propRef{}).clone()
	for _, id := range g.NodeIDs() {
		n := g.Node(id)
		r.nodes[id] = copyProps(n.Props)
		r.labels[id] = n.Labels
	}
	for _, id := range g.RelIDs() {
		rel := g.Rel(id)
		r.rels[id] = copyProps(rel.Props)
		r.types[id] = rel.Type
		r.ends[id] = [2]graph.ID{rel.Start, rel.End}
	}
	return r
}

// bulkRef records a bulk graph under the map layout it had before
// columns: every node {id: ID, k0: ID}, every relationship prop-less.
func bulkRef(g *graph.Graph) *propRef {
	r := (&propRef{}).clone()
	for _, id := range g.NodeIDs() {
		r.nodes[id] = map[string]value.Value{"id": value.Int(id), "k0": value.Int(id)}
		r.labels[id] = g.Node(id).Labels
	}
	for _, id := range g.RelIDs() {
		rel := g.Rel(id)
		r.rels[id] = map[string]value.Value{}
		r.types[id] = rel.Type
		r.ends[id] = [2]graph.ID{rel.Start, rel.End}
	}
	return r
}

func (r *propRef) keys() []string {
	set := map[string]struct{}{}
	for _, m := range r.nodes {
		for k := range m {
			set[k] = struct{}{}
		}
	}
	for _, m := range r.rels {
		for k := range m {
			set[k] = struct{}{}
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// cypher renders the reference as Graph.ToCypher renders a graph.
func (r *propRef) cypher() string {
	render := func(m map[string]value.Value) string {
		ks := make([]string, 0, len(m))
		for k := range m {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		parts := make([]string, len(ks))
		for i, k := range ks {
			parts[i] = k + ": " + m[k].String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	var parts []string
	for _, id := range sortedIDs(r.nodes) {
		labels := ""
		for _, l := range r.labels[id] {
			labels += ":" + l
		}
		parts = append(parts, fmt.Sprintf("(_n%d%s %s)", id, labels, render(r.nodes[id])))
	}
	for _, id := range sortedIDs(r.rels) {
		e := r.ends[id]
		parts = append(parts, fmt.Sprintf("(_n%d)-[:%s %s]->(_n%d)", e[0], r.types[id], render(r.rels[id]), e[1]))
	}
	if len(parts) == 0 {
		return ""
	}
	return "CREATE " + strings.Join(parts, ", ")
}

func sortedIDs(m map[graph.ID]map[string]value.Value) []graph.ID {
	ids := make([]graph.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// checkProps compares every reader with the reference over every ID in
// and around the graph's range, both kinds, and every key either side
// knows plus one neither does.
func checkProps(t *testing.T, stage string, g *graph.Graph, ref *propRef) {
	t.Helper()
	keys := append(ref.keys(), "id", "k0", "k1", "absent")
	var maxID graph.ID
	for _, m := range []map[graph.ID]map[string]value.Value{ref.nodes, ref.rels} {
		for id := range m {
			maxID = max(maxID, id)
		}
	}
	ctx := eval.GraphCtx{G: g}
	keysFn, propsFn := functions.Lookup("keys"), functions.Lookup("properties")
	for id := graph.ID(-2); id <= maxID+3; id++ {
		for _, isRel := range []bool{false, true} {
			want, exists := ref.nodes[id]
			ent := value.Node(id)
			if isRel {
				want, exists = ref.rels[id]
				ent = value.Rel(id)
			}
			got, ok := g.Props(id, isRel)
			if ok != exists || len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("%s: Props(%d, rel=%v) = %v, %v; want %v, %v", stage, id, isRel, got, ok, want, exists)
			}
			for _, k := range keys {
				wv, wok := want[k]
				v, vok := g.Prop(id, isRel, k)
				if vok != wok || !reflect.DeepEqual(v, wv) && wok {
					t.Fatalf("%s: Prop(%d, rel=%v, %s) = %v, %v; want %v, %v", stage, id, isRel, k, v, vok, wv, wok)
				}
				if lv, lok := g.Lookup(graph.PropertyKey{Element: id, IsRel: isRel, Name: k}); lok != vok || !reflect.DeepEqual(lv, v) {
					t.Fatalf("%s: Lookup(%d, rel=%v, %s) = %v, %v; Prop gives %v, %v", stage, id, isRel, k, lv, lok, v, vok)
				}
			}
			kv, kerr := keysFn.Call(ctx, []value.Value{ent})
			pv, perr := propsFn.Call(ctx, []value.Value{ent})
			if (kerr == nil) != exists || (perr == nil) != exists {
				t.Fatalf("%s: keys/properties(%d, rel=%v) errors %v, %v; exists %v", stage, id, isRel, kerr, perr, exists)
			}
			if !exists {
				continue
			}
			names := make([]string, 0, len(want))
			for k := range want {
				names = append(names, k)
			}
			sort.Strings(names)
			wk := make([]value.Value, len(names))
			for i, n := range names {
				wk[i] = value.Str(n)
			}
			if kv.String() != value.ListOf(wk).String() || pv.String() != value.Map(copyProps(want)).String() {
				t.Fatalf("%s: keys/properties(%d, rel=%v) = %s, %s; want %v", stage, id, isRel, kv, pv, want)
			}
		}
	}
	// AppendNodeProps is Prop over a list of IDs: any IDs, any order.
	var ids []graph.ID
	for id := graph.ID(-2); id <= maxID+3; id++ {
		ids = append(ids, id)
	}
	ids = append(ids, maxID+100, 1<<40, -1<<40, 0)
	for _, k := range keys {
		for _, skip := range []graph.ID{-1, 0, maxID / 2} {
			var want []value.Value
			for _, id := range ids {
				if v, ok := g.Prop(id, false, k); ok && id != skip {
					want = append(want, v)
				}
			}
			if got := g.AppendNodeProps(nil, ids, skip, k); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: AppendNodeProps(%s, skip %d) gives %d values, Prop %d", stage, k, skip, len(got), len(want))
			}
		}
	}
	if got, want := g.ToCypher(), ref.cypher(); got != want {
		t.Fatalf("%s: ToCypher differs:\n got %.300s\nwant %.300s", stage, got, want)
	}
	if got, want := g.PropertyKeys(), ref.keys(); !slices.Equal(got, want) {
		t.Fatalf("%s: PropertyKeys = %v, want %v", stage, got, want)
	}
}

// mutate applies one round of overlay writes to g and the reference
// alike: property sets and removes (column keys included), creations,
// a detach delete and a relationship delete.
func mutate(t *testing.T, r *rand.Rand, g *graph.Graph, ref *propRef) {
	t.Helper()
	nodes, rels := sortedIDs(ref.nodes), sortedIDs(ref.rels)
	pick := func(ids []graph.ID) graph.ID { return ids[r.Intn(len(ids))] }

	a := pick(nodes)
	g.MutableNode(a).Props["zz"] = value.Int(7)
	ref.nodes[a]["zz"] = value.Int(7)
	b := pick(nodes)
	delete(g.MutableNode(b).Props, "id")
	delete(ref.nodes[b], "id")
	c := pick(nodes)
	g.MutableNode(c).Props["id"] = value.Str("x")
	ref.nodes[c]["id"] = value.Str("x")
	if len(rels) > 0 {
		e := pick(rels)
		g.MutableRel(e).Props["w"] = value.Float(1.5)
		ref.rels[e]["w"] = value.Float(1.5)
	}

	n := g.NewNode("L0")
	ref.nodes[n.ID] = map[string]value.Value{"id": value.Int(n.ID)}
	ref.labels[n.ID] = []string{"L0"}
	rel, err := g.NewRel(a, n.ID, "T0")
	if err != nil {
		t.Fatal(err)
	}
	ref.rels[rel.ID] = map[string]value.Value{"id": value.Int(rel.ID)}
	ref.types[rel.ID] = "T0"
	ref.ends[rel.ID] = [2]graph.ID{a, n.ID}

	d := pick(nodes)
	for _, rid := range g.Incident(d) {
		delete(ref.rels, rid)
	}
	if err := g.DeleteNode(d, true); err != nil {
		t.Fatal(err)
	}
	delete(ref.nodes, d)
	rels = sortedIDs(ref.rels)
	e := pick(rels)
	g.DeleteRel(e)
	delete(ref.rels, e)
}

func TestPropReadContract(t *testing.T) {
	cases := []struct {
		name string
		cfg  graph.GenConfig
		ref  func(*graph.Graph) *propRef
	}{
		{"small", graph.GenConfig{MaxNodes: 13, MaxRels: 60}, plainRef},
		{"bulk", graph.GenConfig{Scale: 500}, bulkRef},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				r := rand.New(rand.NewSource(seed))
				g, _ := graph.Generate(r, tc.cfg)
				ref := tc.ref(g)
				snap := g.Seal()
				base := ref.clone()
				checkProps(t, "sealed", g, ref)
				mutate(t, r, g, ref)
				checkProps(t, "written", g, ref)
				mutate(t, r, g, ref)
				checkProps(t, "written twice", g, ref)
				checkProps(t, "clone", g.Clone(), ref)
				g.ResetToBase()
				checkProps(t, "reset", g, base)
				checkProps(t, "fresh overlay", graph.FromSnapshot(snap), base)
			}
		})
	}
}

// TestPropertyKeysProcedure runs db.propertyKeys() on engines loaded from
// a bulk snapshot: the column keys appear while a live node carries
// them, a write adds its key, and deleting every element removes all.
func TestPropertyKeysProcedure(t *testing.T) {
	g, schema := graph.Generate(rand.New(rand.NewSource(1)), graph.GenConfig{Scale: 500})
	snap := g.Seal()
	e := engine.NewReference()
	e.LoadSnapshot(snap, schema)
	keys := func() string {
		res, err := e.Execute("CALL db.propertyKeys()")
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, row := range res.Rows {
			out = append(out, row[0].String())
		}
		return strings.Join(out, ",")
	}
	for _, step := range []struct{ query, want string }{
		{"", "'id','k0'"},
		{"MATCH ()-[r]->() WITH r LIMIT 1 SET r.w = 1", "'id','k0','w'"},
		{"MATCH (n) DETACH DELETE n", ""},
	} {
		if step.query != "" {
			if _, err := e.Execute(step.query); err != nil {
				t.Fatal(err)
			}
		}
		if got := keys(); got != step.want {
			t.Fatalf("after %q: db.propertyKeys() = %s, want %s", step.query, got, step.want)
		}
	}
	e.LoadSnapshot(snap, schema)
	if got := keys(); got != "'id','k0'" {
		t.Fatalf("after reload: db.propertyKeys() = %s", got)
	}
}

// TestLazyIndexConcurrentProbes has several stores share one bulk
// snapshot and probe its property index at once; the first probe fills
// the buckets under the index's once-guard. Every answer must equal an
// index built eagerly over a plain copy of the graph. Run under -race.
func TestLazyIndexConcurrentProbes(t *testing.T) {
	g, schema := graph.Generate(rand.New(rand.NewSource(3)), graph.GenConfig{Scale: 3000})
	snap := g.Seal()
	eager := graph.BuildIndex(g.Clone(), schema)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := engine.NewStore()
			st.ResetSnapshot(snap, schema)
			ix := snap.Index(schema)
			for id := graph.ID(w); id < 3000; id += 7 {
				label := snap.Node(id).Labels[0]
				got, ok := st.NodesByIndex(label, "k0", value.Int(id))
				if !ok || !slices.Equal(got, []graph.ID{id}) {
					errs <- fmt.Errorf("store %d: NodesByIndex(%s, k0, %d) = %v, %v", w, label, id, got, ok)
					return
				}
				for _, spec := range ix.Specs() {
					key := value.Int(id).Key()
					if !slices.Equal(ix.Prop(spec, key), eager.Prop(spec, key)) ||
						ix.HasPropID(spec, key, id) != eager.HasPropID(spec, key, id) {
						errs <- fmt.Errorf("store %d: index bucket %v/%d differs from the eager build", w, spec, id)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, l := range eager.Labels() {
		if !slices.Equal(snap.Index(schema).Label(l), eager.Label(l)) {
			t.Fatalf("label list %s differs from the eager build", l)
		}
	}
}
