module scgnn/bench

go 1.22

require scgnn v0.0.0

replace scgnn => ../
