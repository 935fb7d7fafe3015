package gdb

import (
	"context"
	"reflect"
	"testing"

	"gqs/internal/engine"
)

// TestPlanDiffFaultInjected is the planned-vs-interpreted differential
// on the connectors a campaign actually drives: the four fault-injected
// simulated GDBs plus the reference, over the seed-1 synthesized corpus.
// One connector set runs every query on compiled plans, a second on the
// interpreter, in the same order (so their execution-scoped rand() and
// timestamp() streams line up); each (query, dialect) outcome — result
// or error, after fault injection — and the triggered fault must be
// identical, rows in order.
func TestPlanDiffFaultInjected(t *testing.T) {
	g, schema, texts := corpus(t, 1, 24)
	snap := g.Seal()
	planned, interp := fiveDialects(), fiveDialects()
	for i := range planned {
		planned[i].SetPlanExecution(true)
		interp[i].SetPlanExecution(false)
		for _, c := range []*Sim{planned[i], interp[i]} {
			if err := c.ResetSnapshot(snap, schema); err != nil {
				t.Fatalf("reset %s: %v", c.Name(), err)
			}
		}
	}
	ctx := context.Background()
	compiled, triggered := 0, 0
	for _, text := range texts {
		pq, err := engine.Prepare(text)
		if err != nil {
			t.Fatalf("prepare %q: %v", text, err)
		}
		if pq.Planned() {
			compiled++
		}
		for i := range planned {
			name := planned[i].Name()
			pres, perr := planned[i].ExecutePrepared(ctx, pq)
			ires, ierr := interp[i].ExecutePrepared(ctx, pq)
			if pb, ib := bugID(planned[i]), bugID(interp[i]); pb != ib {
				t.Fatalf("%s: %q: planned triggered %q, interpreted %q", name, text, pb, ib)
			} else if pb != "" {
				triggered++
			}
			switch {
			case (perr == nil) != (ierr == nil):
				t.Fatalf("%s: %q: planned err=%v, interpreted err=%v", name, text, perr, ierr)
			case perr != nil:
				if perr.Error() != ierr.Error() {
					t.Fatalf("%s: %q: planned err=%v, interpreted err=%v", name, text, perr, ierr)
				}
			case !reflect.DeepEqual(pres.Columns, ires.Columns) || !reflect.DeepEqual(pres.Rows, ires.Rows):
				t.Fatalf("%s: %q: planned result diverged from interpreter\nplanned:     %v\ninterpreted: %v",
					name, text, pres, ires)
			}
		}
	}
	if compiled == 0 || triggered == 0 {
		t.Fatalf("%d queries planned, %d faults triggered: the corpus exercises neither path", compiled, triggered)
	}
	t.Logf("%d/%d queries planned, %d faults triggered", compiled, len(texts), triggered)
}

// bugID names the fault the connector's last execution triggered, "" for none.
func bugID(s *Sim) string {
	if b := s.TriggeredBug(); b != nil {
		return b.ID
	}
	return ""
}
