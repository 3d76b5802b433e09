package obs

import (
	"expvar"
	"sync"

	"repro/internal/units"
)

// Expvar returns the process-wide expvar-backed Recorder, publishing
// everything under the single expvar map "hyve" (visible at
// /debug/vars once a driver serves net/http/pprof). Counters publish
// as integers; gauges as floats; phase times in seconds
// (key suffix "_s") and energies in joules (key suffix "_j"), so the
// endpoint shows human-scale numbers.
//
// The map is published lazily exactly once per process — expvar panics
// on duplicate names — and the same Recorder is returned every call.
func Expvar() Recorder {
	expvarOnce.Do(func() {
		expvarRec = &expvarRecorder{m: expvar.NewMap("hyve")}
	})
	return expvarRec
}

var (
	expvarOnce sync.Once
	expvarRec  *expvarRecorder
)

type expvarRecorder struct {
	m *expvar.Map
	// secNames and jouleNames intern the "_s"/"_j"-suffixed key for
	// each metric name, so steady-state PhaseTime/PhaseEnergy calls
	// stop concatenating (and therefore allocating) a fresh string per
	// recording. Values are strings keyed by the unsuffixed name.
	secNames   sync.Map
	jouleNames sync.Map
}

func (r *expvarRecorder) Count(name string, delta int64) {
	r.m.Add(name, delta)
}

// Gauge sets the named float var, reusing the var published on the
// first call for that name: last write wins with no steady-state
// allocation. (Two first-calls racing both publish; expvar.Map.Set is
// synchronized and later calls all converge on the stored var.)
func (r *expvarRecorder) Gauge(name string, v float64) {
	if f, ok := r.m.Get(name).(*expvar.Float); ok {
		f.Set(v)
		return
	}
	f := new(expvar.Float)
	f.Set(v)
	r.m.Set(name, f)
}

// suffixed returns the interned name+suffix key.
func suffixed(cache *sync.Map, name, suffix string) string {
	if v, ok := cache.Load(name); ok {
		return v.(string)
	}
	s := name + suffix
	cache.Store(name, s)
	return s
}

func (r *expvarRecorder) PhaseTime(phase string, t units.Time) {
	r.m.AddFloat(suffixed(&r.secNames, phase, "_s"), t.Seconds())
}

func (r *expvarRecorder) PhaseEnergy(component string, e units.Energy) {
	r.m.AddFloat(suffixed(&r.jouleNames, component, "_j"), e.Joules())
}
