# Convenience entry points; CI runs the same commands. The repository
# benchmark is rlsbench (bash rlsbench/run.sh; scripts/bench_gate.sh
# compares a base revision with this checkout on it).

.PHONY: test vet lint race

# test mirrors the CI test job: the root module, then rlsbench — a module
# of its own that ./... never enters, and a caller of the internal/sim
# API, so a local run catches a break there too.
test:
	go build ./... && go test ./...
	cd rlsbench && go vet ./... && go test ./...

vet:
	go vet ./...

# lint mirrors the CI lint job: formatting gates the build, then vet.
lint:
	@diff=$$(gofmt -l .); if [ -n "$$diff" ]; then \
		echo "gofmt needed on:"; echo "$$diff"; exit 1; fi
	go vet ./...

# race mirrors the CI race job; the sharded engine makes it load-bearing.
race:
	go test -race ./...

# scaling prints the speedup-vs-P table for the parallel engines on this
# machine (see the JSON header for cores/GOMAXPROCS caveats).
.PHONY: scaling
scaling:
	go run ./cmd/rlsweep -scaling

# serviceload prints the multi-tenant service load table for this machine
# (CI's service job runs the full 1000x50x30s study and gates it with
# scripts/check_service.sh).
.PHONY: serviceload
serviceload:
	go run ./cmd/rlsweep -serviceload
