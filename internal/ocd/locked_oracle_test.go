package ocd

// The locked read plane: the pre-snapshot serving path, answering each
// read from the live simulation under the daemon lock. It is the oracle
// TestSnapshotMatchesLockedReads holds the snapshot read plane to, and
// the baseline arm of BenchmarkServingMixedReadWhileStepping.

import (
	"fmt"
	"math"
	"net/http"
	"sort"

	"immersionoc/internal/api"
	"immersionoc/internal/telemetry"
	"immersionoc/internal/vm"
)

// lockedHandler builds the locked twin's route table: the read
// endpoints go through post and locked (or take d.mu directly), the
// write endpoints are the production routes.
func lockedHandler(d *Daemon) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/filter", post(d, func(r api.FilterRequest) string { return r.Vers },
		locked(d, d.filterLocked)))
	mux.HandleFunc("/v1/prioritize", post(d, func(r api.PrioritizeRequest) string { return r.Vers },
		locked(d, d.prioritizeLocked)))
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, r *http.Request) {
		d.requests.Inc()
		if r.Method != http.MethodGet {
			writeError(w, http.StatusMethodNotAllowed, "GET only")
			return
		}
		d.mu.Lock()
		st := d.statusLocked()
		d.mu.Unlock()
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		d.requests.Inc()
		// A fresh renderer per scrape: no plan is carried between
		// requests. The telemetry package pins the renderer to its
		// snapshot-based reference writer.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = telemetry.NewPromRenderer(d.reg, "ocd").Render(w)
	})
	d.writeRoutes(mux)
	return mux
}

// filterLocked answers "which servers can take this VM" from the live
// simulation.
func (d *Daemon) filterLocked(req api.FilterRequest) (api.FilterResponse, error) {
	v, err := vmFromSpec(req.VM)
	if err != nil {
		return api.FilterResponse{}, err
	}
	cl := d.sim.Cluster()
	servers := cl.Servers()
	resp := api.FilterResponse{Vers: api.Version}
	for i, srv := range servers {
		ref := d.serverRef(i)
		reason := cl.Explain(srv, v)
		if reason == "" && v.Class == vm.HighPerf &&
			d.sim.TankOverclocked(ref.Tank) >= d.sim.TankBudget(ref.Tank) {
			reason = reasonThermal
		}
		if reason == "" {
			resp.Eligible = append(resp.Eligible, ref)
		} else {
			resp.Failed = append(resp.Failed, api.FilterFailure{Server: ref, Reason: reason})
		}
	}
	return resp, nil
}

// prioritizeLocked scores candidates from the live simulation, with
// the per-server capacity term servePrioritize hoists out of its loop.
func (d *Daemon) prioritizeLocked(req api.PrioritizeRequest) (api.PrioritizeResponse, error) {
	v, err := vmFromSpec(req.VM)
	if err != nil {
		return api.PrioritizeResponse{}, err
	}
	pol := d.sim.Cluster().Policy
	resp := api.PrioritizeResponse{Vers: api.Version}
	for _, i := range req.Servers {
		if i < 0 || i >= d.sim.ServerCount() {
			return api.PrioritizeResponse{}, errf(http.StatusBadRequest, "server %d out of range", i)
		}
		info := d.sim.Server(i)
		capV := float64(info.PCores)
		if pol.CPUOversubRatio > 0 && info.Overclockable {
			capV = math.Floor(capV * (1 + pol.CPUOversubRatio))
		}
		headroom := (capV - float64(info.VCoresUsed) - float64(v.Type.VCores)) / capV
		headroom = math.Max(0, math.Min(1, headroom))
		credit := 1.0
		if info.WearProRata > 0 {
			credit = math.Max(0, math.Min(1, 1-info.WearUsed/info.WearProRata))
		}
		resp.Scores = append(resp.Scores, api.HostScore{
			Server: api.ServerRef{Index: info.Index, ID: info.ID, Tank: info.Tank},
			Score:  100 * (0.6*headroom + 0.4*credit),
		})
	}
	sort.SliceStable(resp.Scores, func(a, b int) bool {
		if resp.Scores[a].Score != resp.Scores[b].Score {
			return resp.Scores[a].Score > resp.Scores[b].Score
		}
		return resp.Scores[a].Server.Index < resp.Scores[b].Server.Index
	})
	return resp, nil
}

// statusLocked reports the fleet KPIs from the live simulation:
// cumulative counts from the run's report plus the live row draw and
// per-tank overclock counts.
func (d *Daemon) statusLocked() api.FleetStatus {
	rep := d.sim.Report()
	oc := 0
	for i := 0; i < d.sim.TankCount(); i++ {
		oc += d.sim.TankOverclocked(i)
	}
	return api.FleetStatus{
		Vers:                 api.Version,
		SimTimeS:             d.sim.Now(),
		StepS:                d.sim.StepS(),
		Mode:                 d.mode,
		Servers:              d.sim.ServerCount(),
		Tanks:                d.sim.TankCount(),
		PlacedVMs:            d.sim.Cluster().PlacedVMs(),
		Density:              d.sim.Cluster().Density(),
		Rejected:             rep.Rejected,
		RowPowerW:            d.sim.RowPowerW(),
		MaxBathC:             rep.MaxBathC,
		Overclocked:          oc,
		Grants:               rep.TotalGrants,
		Cancelled:            rep.CancelledOverclocks,
		CapEvents:            rep.CapEvents,
		OverclockServerHours: rep.OverclockServerHours,
		MeanWearUsed:         rep.MeanWearUsed,
	}
}

// publishFullCopyLocked publishes like publishLocked but into a fresh
// view that does not chain off the current one, so every column
// re-materializes: the pre-COW publication cost, the publish
// benchmarks' baseline arm. Caller must hold d.mu.
func (d *Daemon) publishFullCopyLocked() {
	v := &fleetView{}
	d.sim.Snapshot(&v.FleetSnapshot)
	d.snap.Store(v)
}
