"""Outside-in benchmark of the ogaprox command line; see README.md."""
