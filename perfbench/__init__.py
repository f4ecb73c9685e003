"""Layer-resolved benchmark of the online CMVRP simulator (see README.md)."""
