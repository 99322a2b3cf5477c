package system

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"microbank/internal/config"
	"microbank/internal/obs"
	"microbank/internal/workload"
)

// TestDigestCoversEveryDataField walks every leaf field of a two-core
// spec — Sys, each Profiles entry, the budgets and the seed — by
// reflection and perturbs each in turn: the digest must change every
// time. A data field that cannot reach the key (unexported, tagged
// json:"-", or of a kind the walk does not know) fails here instead of
// letting two different runs share a stored result. Obs, Limits and
// GeneratorFor are run controls, not data: they must not move it.
func TestDigestCoversEveryDataField(t *testing.T) {
	sys := config.DefaultSystem(config.MemPreset(config.LPDDRTSI, 2, 8))
	sys.Cores = 2
	spec := UniformSpec(sys, workload.MustGet("429.mcf"), 20000, 42)
	spec.WarmupInstr = 10000
	want, err := spec.Digest()
	if err != nil {
		t.Fatal(err)
	}
	leaves := 0
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch {
		case path == ".GeneratorFor" || path == ".Obs" || path == ".Limits":
			return
		case !v.CanSet():
			t.Errorf("%s: unexported, so outside the digest", path)
			return
		}
		prev := reflect.New(v.Type()).Elem()
		prev.Set(v)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
			return
		case reflect.Int, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Errorf("%s: kind %s has no perturbation; extend this test", path, v.Kind())
			return
		}
		leaves++
		if got, err := spec.Digest(); err != nil || got == want {
			t.Errorf("%s: perturbing it leaves the digest unchanged (%v)", path, err)
		}
		v.Set(prev)
	}
	walk("", reflect.ValueOf(&spec).Elem())
	if leaves < 50 {
		t.Fatalf("walked only %d leaf fields", leaves)
	}

	spec.Obs = obs.NewObserver()
	spec.Limits = &Limits{WallClock: time.Hour, EventBudget: 1 << 40}
	if got, err := spec.Digest(); err != nil || got != want {
		t.Fatalf("Obs/Limits (or the walk) changed the digest: %s vs %s (%v)", got, want, err)
	}
	spec.GeneratorFor = func(int) workload.Generator { return nil }
	if _, err := spec.Digest(); err == nil {
		t.Fatal("a spec with GeneratorFor got a digest")
	}
}
