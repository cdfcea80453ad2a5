let git_rev = Obs.git_rev
