// Package router is a layering fixture: the scatter-gather backend may
// import the root package (it sits under internal/cluster) and mount
// /v1/cluster, but every other route — and the request entry point —
// belongs to the protocol core.
package router

import (
	"net/http"

	"dualsim"
)

// Router stands in for the real backend.
type Router struct {
	db  *dualsim.DB
	mux *http.ServeMux
}

func (r *Router) handle(http.ResponseWriter, *http.Request) {}

// Mount registers the router's own route and three it must not own.
func (r *Router) Mount(dynamic string) {
	r.mux.HandleFunc("GET /v1/cluster", r.handle)
	r.mux.HandleFunc("POST /v1/query", r.handle)         // want `router registers "POST /v1/query"; every route but /v1/cluster belongs to the protocol core`
	r.mux.Handle("/metrics", http.HandlerFunc(r.handle)) // want `router registers "/metrics"; every route but /v1/cluster belongs to the protocol core`
	r.mux.HandleFunc(dynamic, r.handle)                  // want `router registers a route with a non-constant pattern`
}

// ServeHTTP would let the router intercept requests ahead of the core.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { // want `router declares ServeHTTP; requests enter through the protocol core`
	r.mux.ServeHTTP(w, req)
}
