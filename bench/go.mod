module ammboost/bench

go 1.24

require ammboost v0.0.0

replace ammboost => ../
