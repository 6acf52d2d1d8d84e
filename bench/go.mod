module coterie/bench

go 1.22

require coterie v0.0.0

replace coterie => ../
