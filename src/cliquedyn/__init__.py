"""Clique graph dynamics on locally cyclic graphs."""
