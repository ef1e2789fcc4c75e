let used x = x + 1
let unused x = x + 2
let tested x = x + 3
let seam x = x + 4
let aliased x = x + 5
let local_aliased x = x + 6
