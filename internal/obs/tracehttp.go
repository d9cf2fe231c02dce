package obs

import (
	"encoding/json"
	"net/http"
	"strconv"
)

// ServeHTTP serves the recorder's retained traces as JSON — the
// /debug/requests format shared by the query daemon and the ingest
// observability endpoint. Query parameters narrow the view:
// ?endpoint= keeps one endpoint, ?disposition= one outcome class
// (ok|shed|error), ?limit= caps the count. Unknown
// disposition names are rejected with 400, not silently empty.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if r == nil {
		http.NotFound(w, req)
		return
	}
	q := req.URL.Query()
	f := TraceFilter{Endpoint: q.Get("endpoint"), Disposition: q.Get("disposition")}
	if f.Disposition != "" {
		if _, ok := ParseDisposition(f.Disposition); !ok {
			http.Error(w, "unknown disposition "+strconv.Quote(f.Disposition), http.StatusBadRequest)
			return
		}
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			http.Error(w, "bad limit "+strconv.Quote(s), http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	snaps := r.Snapshot(f)
	if snaps == nil {
		snaps = []TraceSnapshot{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"count": len(snaps), "requests": snaps})
}
