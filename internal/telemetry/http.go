package telemetry

import (
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// MetricsHandler serves a registry in Prometheus text format.
func MetricsHandler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		r.WritePrometheus(w)
	})
}

// TraceHandler records a trace for ?sec= seconds (default 1, max 60) and
// streams the Chrome trace-event JSON back. Responds 400 if sec is not a
// positive number (NaN included), 409 Conflict if a trace is already being
// collected (only one tracer may be active per process).
func TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		sec := 1.0
		if q := req.URL.Query().Get("sec"); q != "" {
			v, err := strconv.ParseFloat(q, 64)
			if err != nil || !(v > 0) { // NaN fails v > 0 too
				http.Error(w, "trace: bad sec parameter", http.StatusBadRequest)
				return
			}
			sec = min(v, 60)
		}
		tr := StartTracing()
		if tr == nil {
			http.Error(w, "trace: a trace is already being collected", http.StatusConflict)
			return
		}
		select {
		case <-time.After(time.Duration(sec * float64(time.Second))):
		case <-req.Context().Done():
		}
		StopTracing()
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%q", "edgetta-trace.json"))
		tr.WriteJSON(w)
	})
}
