module heron/bench

go 1.22

require heron v0.0.0

replace heron => ../
