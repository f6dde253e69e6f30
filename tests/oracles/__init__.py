"""Independent reference implementations that tests check production
code against."""
