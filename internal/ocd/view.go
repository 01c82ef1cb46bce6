package ocd

// The snapshot read plane: /v1/filter, /v1/prioritize, /v1/status,
// /healthz and /metrics served entirely from the last published
// fleetView, with zero locking and zero steady-state allocations.
//
// Correctness contract: every handler here must produce bytes
// identical to its locked oracle (locked_oracle_test.go: the same
// query answered from the live simulation under the daemon lock) when
// the view was published at the same simulated instant —
// TestSnapshotMatchesLockedReads pins that equivalence response by
// response. The allocation contract
// (0 allocs/op once scratch is warm) is pinned by
// TestReadPlaneZeroAllocs.
//
// /v1/filter does not go through encoding/json: its answer lists every
// server, and reflection-driven encoding of that list dominated the
// request. appendFilter renders the v1 bytes directly, copying each
// server's pre-rendered ServerRef fragment (refTable) instead of
// formatting it; FuzzFilterEncodeMatchesJSON pins the output to
// json.Encoder's. Prioritize and status answers are small and still
// encode through the pooled json.Encoder.
//
// Recycling rules:
//   - fleetView is immutable after publishLocked stores it. Views are
//     never pooled: a reader may hold one arbitrarily long, so reusing
//     a retired view's slices would race with in-flight reads. The
//     write plane pays one view allocation per publish; readers pay
//     nothing.
//   - servScratch is per-request mutable state (decode buffer, request
//     structs, response buffers and slices, the pooled JSON encoder).
//     It cycles through d.scratch, so a request owns its scratch
//     exclusively from Get to Put.
//   - refTable is built once in New, before the daemon serves, and is
//     read-only afterwards.
//   - telemetry.PromRenderer is not safe for concurrent use, so
//     /metrics cycles renderers through d.renderers the same way.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"

	"immersionoc/internal/api"
	"immersionoc/internal/cluster"
	"immersionoc/internal/dcsim"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// reasonThermal is the interned filter-failure reason for a
// guaranteed-overclock VM landing in a tank with no condenser
// headroom; the cluster-level reasons are interned as cluster.Reason*.
const reasonThermal = "thermal"

// fleetView is one published read model: the simulation's columnar
// snapshot, which carries everything the read endpoints report.
type fleetView struct {
	dcsim.FleetSnapshot
}

// publishLocked snapshots the simulation into a new view and makes it
// the current read model. Caller must hold d.mu. The view CHAINS off
// the previously published one: the snapshot export shares every
// column chunk that no mutation dirtied since the last publish, so a
// one-VM write republishes in O(dirty chunks) instead of O(fleet). The
// previous view is never written — readers holding it are undisturbed.
func (d *Daemon) publishLocked() {
	v := &fleetView{}
	if prev := d.snap.Load(); prev != nil {
		v.FleetSnapshot = prev.FleetSnapshot
	}
	d.sim.Snapshot(&v.FleetSnapshot)
	d.snap.Store(v)
}

// Shared header value slices: assigning a pre-built []string into the
// header map is the allocation-free spelling of Header().Set.
var (
	jsonCT = []string{"application/json"}
	textCT = []string{"text/plain; charset=utf-8"}
	promCT = []string{"text/plain; version=0.0.4; charset=utf-8"}

	healthzBody = []byte("ok\n")
)

// outputProxy is the stable io.Writer a pooled json.Encoder is bound
// to; each request points it at the live ResponseWriter for the
// duration of one Encode.
type outputProxy struct{ w io.Writer }

func (p *outputProxy) Write(b []byte) (int, error) { return p.w.Write(b) }

// hostScoreSorter is the typed sort.Interface for prioritize scores:
// score descending, fleet index ascending. The order is total (index
// breaks every tie), so any stable sort yields the same permutation as
// locked oracle's sort.SliceStable — and a pointer receiver converts
// to sort.Interface without allocating, where sort.Slice's closure
// would.
type hostScoreSorter struct{ s []api.HostScore }

func (h *hostScoreSorter) Len() int      { return len(h.s) }
func (h *hostScoreSorter) Swap(i, j int) { h.s[i], h.s[j] = h.s[j], h.s[i] }
func (h *hostScoreSorter) Less(i, j int) bool {
	if h.s[i].Score != h.s[j].Score {
		return h.s[i].Score > h.s[j].Score
	}
	return h.s[i].Server.Index < h.s[j].Server.Index
}

// servScratch is the pooled per-request state of the read plane.
type servScratch struct {
	body []byte // request body buffer

	freq api.FilterRequest
	preq api.PrioritizeRequest // Servers doubles as the decode buffer

	// filterOut is the rendered filter response; filterFailed holds
	// its "failed" list while the eligible list is still being written.
	filterOut, filterFailed []byte

	scores []api.HostScore
	sorter hostScoreSorter

	presp  api.PrioritizeResponse
	status api.FleetStatus

	out outputProxy
	enc *json.Encoder
}

func newServScratch() *servScratch {
	sc := &servScratch{body: make([]byte, 0, 4096)}
	sc.enc = json.NewEncoder(&sc.out)
	return sc
}

// writeJSON encodes v through the scratch's pooled encoder, matching
// the package-level writeJSON byte for byte (same encoder settings,
// same trailing newline; the 200 status is implicit).
func (sc *servScratch) writeJSON(w http.ResponseWriter, v any) {
	w.Header()["Content-Type"] = jsonCT
	sc.out.w = w
	err := sc.enc.Encode(v)
	sc.out.w = nil
	if err != nil {
		// A json.Encoder's first error is sticky and would poison every
		// later request recycled through this scratch — replace it.
		sc.enc = json.NewEncoder(&sc.out)
	}
}

// readBody buffers the request body into the scratch, enforcing the
// same size cap — with the same error response — as post's
// http.MaxBytesReader. Returns false with the response written.
func (sc *servScratch) readBody(w http.ResponseWriter, r *http.Request) bool {
	sc.body = sc.body[:0]
	for {
		if len(sc.body) == cap(sc.body) {
			sc.body = append(sc.body, 0)[:len(sc.body)]
		}
		n, err := r.Body.Read(sc.body[len(sc.body):cap(sc.body)])
		sc.body = sc.body[:len(sc.body)+n]
		if len(sc.body) > maxBodyBytes {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
			return false
		}
		if err == io.EOF {
			return true
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return false
		}
	}
}

// writeAPIError renders a handler error with its apiError status,
// exactly as post() does on the write routes.
func writeAPIError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	if ae, ok := err.(*apiError); ok {
		code = ae.code
	}
	writeError(w, code, err.Error())
}

// serveFilter answers /v1/filter from the published view: the
// cluster's eligibility walk (cluster.Explain) over the columnar
// export.
func (d *Daemon) serveFilter(w http.ResponseWriter, r *http.Request) {
	d.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	sc := d.scratch.Get().(*servScratch)
	defer d.scratch.Put(sc)
	if !sc.readBody(w, r) {
		return
	}
	sc.freq = api.FilterRequest{}
	if !parseFilterRequest(sc.body, &sc.freq) {
		sc.freq = api.FilterRequest{}
		if !strictDecode(w, sc.body, &sc.freq) {
			return
		}
	}
	if v := sc.freq.Vers; v != "" && v != api.Version {
		writeError(w, http.StatusBadRequest, "unsupported version "+v)
		return
	}
	class, err := classFromSpec(&sc.freq.VM)
	if err != nil {
		writeAPIError(w, err)
		return
	}
	view := d.snap.Load()
	sc.filterOut, sc.filterFailed = appendFilter(sc.filterOut[:0], sc.filterFailed,
		view, &d.refs, sc.freq.VM.VCores, sc.freq.VM.MemoryGB, class == vm.HighPerf)
	w.Header()["Content-Type"] = jsonCT
	_, _ = w.Write(sc.filterOut)
}

// appendFilter appends view's /v1/filter answer for a VM of the given
// shape to out — byte for byte what json.Encoder.Encode writes for the
// equivalent api.FilterResponse, trailing newline included — in one
// pass over the fleet: eligible servers go straight to out, failures
// to failed (scratch, overwritten), which is joined on at the end. It
// returns both buffers for reuse.
func appendFilter(out, failed []byte, view *fleetView, refs *refTable,
	vcores int, memoryGB float64, highPerf bool) ([]byte, []byte) {
	flat := &view.Flat
	failed = failed[:0]
	out = append(out, `{"version":"`+api.Version+`"`...)
	eligible := false
	for i := 0; i < flat.Servers; i++ {
		reason := flat.Explain(i, vcores, memoryGB, highPerf)
		if reason == "" && highPerf {
			// A guaranteed-overclock VM needs condenser headroom in the
			// tank, not just core headroom on the server.
			if tank := i / view.ServersPerTank; view.OCPerTank[tank] >= view.TankBudget[tank] {
				reason = reasonThermal
			}
		}
		ref := refs.at(i)
		if reason == "" {
			if eligible {
				out = append(out, ',')
			} else {
				out = append(out, `,"eligible":[`...)
				eligible = true
			}
			out = append(out, ref...)
			continue
		}
		if len(failed) == 0 {
			failed = append(failed, `,"failed":[{"server":`...)
		} else {
			failed = append(failed, `,{"server":`...)
		}
		failed = append(failed, ref...)
		failed = append(failed, reasonSuffix(reason)...)
	}
	if eligible {
		out = append(out, ']')
	}
	if len(failed) > 0 {
		out = append(out, failed...)
		out = append(out, ']')
	}
	return append(out, "}\n"...), failed
}

// refTable holds every server's ServerRef rendered as JSON
// (`{"index":i,"id":ID,"tank":T}`) in one slab: server i's fragment
// is slab[off[i]:off[i+1]]. A server's index, ID and tank are fixed
// when the fleet is built, so the table is rendered once per daemon.
type refTable struct {
	slab []byte
	off  []uint32
}

// newRefTable renders the fragments of view's fleet.
func newRefTable(view *fleetView) refTable {
	flat := &view.Flat
	t := refTable{
		slab: make([]byte, 0, 40*flat.Servers), // fragments run 30–40 bytes up to 100k servers
		off:  make([]uint32, 1, flat.Servers+1),
	}
	for i := 0; i < flat.Servers; i++ {
		t.slab = append(t.slab, `{"index":`...)
		t.slab = strconv.AppendInt(t.slab, int64(i), 10)
		t.slab = append(t.slab, `,"id":`...)
		t.slab = strconv.AppendInt(t.slab, int64(flat.ID.At(i)), 10)
		t.slab = append(t.slab, `,"tank":`...)
		t.slab = strconv.AppendInt(t.slab, int64(i/view.ServersPerTank), 10)
		t.slab = append(t.slab, '}')
		t.off = append(t.off, uint32(len(t.slab)))
	}
	return t
}

func (t *refTable) at(i int) []byte { return t.slab[t.off[i]:t.off[i+1]] }

// reasonSuffix returns the bytes closing a filter failure with the
// given reason: `,"reason":"…"}`. Explain returns only the interned
// cluster.Reason* constants and the filter adds reasonThermal, so
// every suffix is a constant.
func reasonSuffix(reason string) string {
	switch reason {
	case cluster.ReasonFailed:
		return `,"reason":"` + cluster.ReasonFailed + `"}`
	case cluster.ReasonMemory:
		return `,"reason":"` + cluster.ReasonMemory + `"}`
	case cluster.ReasonCapacity:
		return `,"reason":"` + cluster.ReasonCapacity + `"}`
	case cluster.ReasonClass:
		return `,"reason":"` + cluster.ReasonClass + `"}`
	case reasonThermal:
		return `,"reason":"` + reasonThermal + `"}`
	}
	panic("ocd: filter reason " + strconv.Quote(reason) + " has no rendered suffix")
}

// servePrioritize answers /v1/prioritize from the published view,
// scoring candidates 0–100: packing headroom after placement blended
// with remaining wear credit (a server with slack in both can absorb
// bursts by overclocking instead of degrading). The fleet is
// spec-uniform, so the capacity term hoists out of the loop.
func (d *Daemon) servePrioritize(w http.ResponseWriter, r *http.Request) {
	d.requests.Inc()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	sc := d.scratch.Get().(*servScratch)
	defer d.scratch.Put(sc)
	if !sc.readBody(w, r) {
		return
	}
	sc.preq.Vers = ""
	sc.preq.VM = api.VMSpec{}
	sc.preq.Servers = sc.preq.Servers[:0]
	if !parsePrioritizeRequest(sc.body, &sc.preq) {
		sc.preq.Vers = ""
		sc.preq.VM = api.VMSpec{}
		sc.preq.Servers = sc.preq.Servers[:0]
		if !strictDecode(w, sc.body, &sc.preq) {
			return
		}
	}
	if v := sc.preq.Vers; v != "" && v != api.Version {
		writeError(w, http.StatusBadRequest, "unsupported version "+v)
		return
	}
	if _, err := classFromSpec(&sc.preq.VM); err != nil {
		writeAPIError(w, err)
		return
	}
	view := d.snap.Load()
	flat := &view.Flat
	capV := float64(flat.Spec.PCores)
	if flat.OversubRatio > 0 && flat.Spec.Overclockable {
		capV = math.Floor(capV * (1 + flat.OversubRatio))
	}
	vcores := float64(sc.preq.VM.VCores)
	sc.scores = sc.scores[:0]
	for _, i := range sc.preq.Servers {
		if i < 0 || i >= flat.Servers {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("server %d out of range", i))
			return
		}
		headroom := (capV - float64(flat.VCoresUsed.At(i)) - vcores) / capV
		headroom = math.Max(0, math.Min(1, headroom))
		credit := 1.0
		if view.WearProRata.At(i) > 0 {
			credit = math.Max(0, math.Min(1, 1-view.WearUsed.At(i)/view.WearProRata.At(i)))
		}
		sc.scores = append(sc.scores, api.HostScore{
			Server: api.ServerRef{Index: i, ID: flat.ID.At(i), Tank: i / view.ServersPerTank},
			Score:  100 * (0.6*headroom + 0.4*credit),
		})
	}
	sc.sorter.s = sc.scores
	sort.Stable(&sc.sorter)
	sc.sorter.s = nil
	sc.presp = api.PrioritizeResponse{Vers: api.Version, Scores: sc.scores}
	sc.writeJSON(w, &sc.presp)
}

// serveStatus answers /v1/status from the published view's KPI block.
func (d *Daemon) serveStatus(w http.ResponseWriter, r *http.Request) {
	d.requests.Inc()
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	view := d.snap.Load()
	sc := d.scratch.Get().(*servScratch)
	defer d.scratch.Put(sc)
	sc.status = api.FleetStatus{
		Vers:                 api.Version,
		SimTimeS:             view.SimTimeS,
		StepS:                view.StepS,
		Mode:                 d.mode,
		Servers:              view.Flat.Servers,
		Tanks:                len(view.OCPerTank),
		PlacedVMs:            view.Flat.PlacedVMs,
		Density:              view.Flat.Density,
		Rejected:             view.Rejected,
		RowPowerW:            view.RowPowerW,
		MaxBathC:             view.MaxBathC,
		Overclocked:          view.Overclocked,
		Grants:               view.TotalGrants,
		Cancelled:            view.CancelledOverclocks,
		CapEvents:            view.CapEvents,
		OverclockServerHours: view.OverclockServerHours,
		MeanWearUsed:         view.MeanWearUsed,
	}
	sc.writeJSON(w, &sc.status)
}

// serveHealthz is the liveness probe: any method, no request
// accounting, a constant body.
func (d *Daemon) serveHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header()["Content-Type"] = textCT
	_, _ = w.Write(healthzBody)
}

// serveMetrics renders the Prometheus exposition through a pooled
// plan-caching renderer.
func (d *Daemon) serveMetrics(w http.ResponseWriter, r *http.Request) {
	d.requests.Inc()
	rend := d.renderers.Get().(*telemetry.PromRenderer)
	w.Header()["Content-Type"] = promCT
	_ = rend.Render(w)
	d.renderers.Put(rend)
}
