module aergia/bench

go 1.24

require aergia v0.0.0

replace aergia => ../
