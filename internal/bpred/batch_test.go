package bpred

import (
	"reflect"
	"testing"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/workload"
)

// predictOne is the scalar reference for PredictGroup: the predictor reads
// and updates for one control instruction, written out per class.
func predictOne(u *Unit, op *Op) {
	switch op.Class {
	case isa.Branch:
		predTaken := u.Dir.Predict(op.PC)
		if predTaken != op.Taken {
			op.Mispredicted = true
		} else if op.Taken {
			tgt, ok := u.BTB.Lookup(op.PC)
			if !ok || tgt != op.Target {
				op.Mispredicted = true
			}
		}
		u.Dir.Update(op.PC, op.Taken)
		if op.Taken {
			u.BTB.Insert(op.PC, op.Target)
		}
	case isa.Jump, isa.Call:
		tgt, ok := u.BTB.Lookup(op.PC)
		if !ok || tgt != op.Target {
			op.Mispredicted = true
		}
		u.BTB.Insert(op.PC, op.Target)
		if op.Class == isa.Call {
			u.RAS.Push(op.PC + 4)
		}
	case isa.Return:
		tgt, ok := u.RAS.Pop()
		if !ok || tgt != op.Target {
			op.Mispredicted = true
		}
	case isa.Syscall:
		op.Serialize = true
	}
}

// TestPredictGroupMatchesScalar checks PredictGroup against the scalar
// reference over the control instructions of real workload traces, cut
// into groups of one to four: the same outcomes, the same stopping point
// (the first group-ending op), and the same predictor state afterwards.
func TestPredictGroupMatchesScalar(t *testing.T) {
	for _, name := range []string{"compress", "database", "pmake"} {
		prof, _ := workload.ByName(name)
		gen, err := workload.New(prof, 9)
		if err != nil {
			t.Fatal(err)
		}
		var ops []Op
		for len(ops) < 20_000 {
			var in isa.Inst
			gen.Next(&in)
			if in.Class.IsCtrl() {
				ops = append(ops, Op{PC: in.PC, Target: in.Target, Class: in.Class, Taken: in.Taken})
			}
		}
		for _, kind := range []string{"gshare", "bimodal", "static"} {
			cfg := config.Baseline().Pred
			cfg.Kind = kind
			batched, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			scalar, _ := New(cfg)
			for pos, size := 0, 1; pos < len(ops); size = size%4 + 1 {
				group := append([]Op(nil), ops[pos:min(pos+size, len(ops))]...)
				done := batched.PredictGroup(group)
				want := 0
				for want < len(group) {
					op := ops[pos+want]
					predictOne(scalar, &op)
					if op != group[want] {
						t.Fatalf("%s/%s op %d: PredictGroup gave %+v, scalar %+v", name, kind, pos+want, group[want], op)
					}
					want++
					if op.Mispredicted || op.Serialize {
						break
					}
				}
				if done != want {
					t.Fatalf("%s/%s at op %d: PredictGroup processed %d ops, scalar %d", name, kind, pos, done, want)
				}
				pos += done
			}
			if !reflect.DeepEqual(batched, scalar) {
				t.Errorf("%s/%s: predictor state diverged from the scalar reference", name, kind)
			}
		}
	}
}
