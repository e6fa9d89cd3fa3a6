module amber/bench

go 1.24

require amber v0.0.0

replace amber => ../
