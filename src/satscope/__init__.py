"""satscope: an instrumented CDCL SAT solver for studying branching behavior
against community structure and temporal graph centrality."""
